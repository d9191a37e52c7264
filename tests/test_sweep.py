import csv
import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import EVIDENCE_REL_TOL, per_d_sweep, sequential_log_evidence
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaosinfer
import chaosinfer.dynamics as dynamics
import chaosinfer.entropy as entropy
from chaosinfer.cli import _value_parser, main, parse_config
from chaosinfer.dynamics import (
    LEAF,
    LOCKSTEP_MIN_POINTS,
    MAX_SIGMA,
    MapSpec,
    NoiseSpec,
    generate_trajectory,
    lyapunov_exponent,
)
from chaosinfer.entropy import EntropyEstimate
from chaosinfer.inference import MAX_ALPHA, MIN_ALPHA
from chaosinfer.symbolize import decision_grid, decision_points, symbolize
from chaosinfer.sweep import (
    COUNT_BLOCK_BYTES,
    EMIT_CHUNK_ROWS,
    FORMAT_CHOICES,
    ROUND_TRIP,
    ConfigError,
    DetailRow,
    SweepConfig,
    SweepResult,
    SweepRow,
    emit,
    load_sweep_json,
    run_sweep,
)

SMALL = SweepConfig(n=1500, transient=100, seed=5, grid=11, k_min=1, k_max=3)
# With detail rows, in three pieces of the writer: 64, 64 and 2 points.
WIDE = SweepConfig(n=1500, transient=100, seed=5, grid=130, k_min=1, k_max=3,
                   detail_path="detail.csv")
SMALL_HEADER = ["d", "k_selected", "h_expected_bits", "h_rate_q_bits", "kl_correction_bits",
                "log_evidence_k1", "log_evidence_k2", "log_evidence_k3",
                "p_order_k1", "p_order_k2", "p_order_k3", "error"]
DETAIL_HEADER = ["d", "k", "h_expected_bits", "h_rate_q_bits", "kl_correction_bits",
                 "log_evidence", "p_order"]
ORDER_PRIORS = next(f for f in dataclasses.fields(SweepConfig)
                    if f.name == "order_prior").metadata["choices"]


def assert_csv_holds(path, header, rows):
    """Every cell of the CSV at `path` equals its row's field exactly; a blank
    cell stands for None or NaN, and a per-order tuple spans its columns."""
    with open(path, encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == header
    assert len(table) == len(rows) + 1
    for cells, row in zip(table[1:], rows):
        values = []
        for field in dataclasses.fields(row):
            value = getattr(row, field.name)
            values += value if isinstance(value, tuple) else [value]
        assert len(cells) == len(values) == len(header)
        for cell, value in zip(cells, values):
            if cell == "":
                assert value is None or (isinstance(value, float) and math.isnan(value))
            else:
                assert type(value)(cell) == value, (cell, value)
    return table


@pytest.fixture(scope="module")
def small_result():
    return run_sweep(SMALL)


def test_rows_cover_grid_in_order(small_result):
    ds = [row.d for row in small_result.rows]
    assert ds == np.linspace(0.0, 1.0, 11).tolist()
    assert all(row.error is None for row in small_result.rows)


def test_row_posteriors_normalized(small_result):
    for row in small_result.rows:
        assert abs(sum(row.p_order) - 1.0) <= 1e-12
        assert row.k_selected in range(SMALL.k_min, SMALL.k_max + 1)
        assert len(row.log_evidence) == SMALL.k_max - SMALL.k_min + 1


def test_degenerate_decision_points_still_produce_rows(small_result):
    first, last = small_result.rows[0], small_result.rows[-1]
    assert first.error is None and last.error is None
    assert first.h_expected_bits < 0.05
    assert last.h_expected_bits < 0.05


def test_run_sweep_is_deterministic(small_result):
    again = run_sweep(SMALL)
    assert again == small_result


def test_regenerate_per_d_changes_rows_but_stays_deterministic():
    cfg = SweepConfig(n=800, transient=50, seed=5, grid=5, k_min=1, k_max=2,
                      regenerate_per_d=True)
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    assert a == b
    shared = run_sweep(SweepConfig(n=800, transient=50, seed=5, grid=5, k_min=1, k_max=2))
    assert a.rows != shared.rows


ORACLE_CASES = {
    "small": SMALL,
    "order_zero": SweepConfig(n=700, transient=30, seed=8, grid=13, k_min=0, k_max=4),
    "shortest_series": SweepConfig(n=6, transient=30, seed=1, grid=9, k_min=0, k_max=4),
    "per_d_series": SweepConfig(n=600, transient=30, seed=2, grid=6, k_min=1, k_max=3,
                                regenerate_per_d=True),
    # 131 points at k_max=8 span a full scoring slice and a partial one.
    "partial_block": SweepConfig(n=600, transient=30, seed=4, grid=131, k_min=1, k_max=8),
    "per_d_partial_block": SweepConfig(n=600, transient=30, seed=6, grid=131, k_min=0,
                                       k_max=8, regenerate_per_d=True),
    # A noiseless period-2 series has 2 distinct cuts, so most of the 131
    # points share the same count tables.
    "few_cuts": SweepConfig(r=3.2, sigma=0.0, n=600, transient=30, seed=3, grid=131, k_min=0,
                            k_max=4),
}


@pytest.mark.parametrize("detail", [False, True], ids=["summary", "detail"])
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_run_sweep_equals_per_d_oracle(case, detail):
    cfg = ORACLE_CASES[case]
    if detail:
        cfg = dataclasses.replace(cfg, detail_path="detail.csv")
    assert run_sweep(cfg) == per_d_sweep(cfg)


def small_count_block(k_max: int) -> int:
    """The points of a counting block under small_count_budget at k_max, an
    odd number, so that its scoring slices of half a block end with one of
    a single point: five (slices of 2, 2 and 1) up to k_max 8, and from
    k_max 9 on LOCKSTEP_MIN_POINTS + 3 (17, 17 and 1), wide enough for its
    regenerated series to step in lockstep."""
    return 5 if k_max <= 8 else LOCKSTEP_MIN_POINTS + 3


def small_count_budget(k_max: int) -> int:
    """A COUNT_BLOCK_BYTES that counts small_count_block(k_max) points a block."""
    return small_count_block(k_max) * (8 << (k_max + 1))


@st.composite
def accepted_configs(draw):
    """A SweepConfig that validate() accepts, with a short series and a grid
    drawn against the blocks that small_count_budget gives.  Up to k_max 8 a
    grid of 2 to 11 points spans one to three counting blocks of five
    points.  From k_max 9 on the grid is one point short of a scoring slice
    or of a counting block, a full one, or one or two points over it.  A
    grid of about a slice simulates each regenerated series on its own, a
    grid of about a counting block steps a full block in lockstep, and a
    grid one or two over a counting block steps its last one or two points
    on their own.  The last point, d = 1, gives every series the same
    symbols, so only two points over put a series-dependent point in the
    second block."""
    k_max = draw(st.sampled_from(range(12)))
    counted = small_count_block(k_max)
    if k_max > 8:
        grid = draw(st.sampled_from([counted // 2, counted])) + draw(st.sampled_from([-1, 0, 1, 2]))
    else:
        grid = draw(st.integers(2, 2 * counted + 1))
    return SweepConfig(
        r=draw(st.sampled_from([4.0, 3.7])),
        sigma=draw(st.sampled_from([0.0, 1e-3, 0.3, 5.0])),
        n=draw(st.integers(k_max + 2, 300)),
        transient=draw(st.integers(0, 50)),
        seed=draw(st.integers(0, 2**32)),
        grid=grid,
        k_min=draw(st.integers(0, k_max)),
        k_max=k_max,
        order_prior=draw(st.sampled_from(ORDER_PRIORS)),
        alpha=draw(st.sampled_from([1.0, 0.5, 0.3, 1e-3, 7.1])),
        regenerate_per_d=draw(st.booleans()),
        detail_path=draw(st.sampled_from([None, "detail.csv"])),
    )


@settings(derandomize=True, deadline=None, max_examples=150)
# Block edges that the draws may not reach.  A regenerated lockstep block
# scored in slices of 17, 17 and 1 points, then 31 points each simulated on
# its own and scored in slices of 17 and 14:
@example(cfg=SweepConfig(n=300, transient=0, seed=1, grid=66, k_min=0, k_max=9, sigma=0.3,
                         alpha=0.3, regenerate_per_d=True, detail_path="detail.csv"))
# Three counting blocks of the shared series, the last of one point:
@example(cfg=SweepConfig(n=200, transient=5, seed=2, grid=11, k_min=0, k_max=2, sigma=0.3))
# Two counting blocks of the shared series, scored in slices of 17, 17 and
# 1, then 17 and 15:
@example(cfg=SweepConfig(n=300, transient=5, seed=3, grid=67, k_min=1, k_max=10, sigma=0.3,
                         detail_path="detail.csv"))
# Regenerated series: a lockstep block scored in slices of 17, 17 and 1,
# then two points simulated on their own:
@example(cfg=SweepConfig(n=300, transient=5, seed=4, grid=37, k_min=2, k_max=11, sigma=0.3,
                         regenerate_per_d=True))
# A shared series over one leaf, cut in uint16 (grid > 255) and counted in
# blocks of five points, or of 35 at k_max 9, so most blocks clip their cuts:
@example(cfg=SweepConfig(n=LEAF + 1000, transient=3, seed=5, grid=300, k_min=0, k_max=2,
                         sigma=0.3))
@example(cfg=SweepConfig(n=LEAF + 9, transient=0, seed=6, grid=300, k_min=7, k_max=9,
                         sigma=1e-3, detail_path="detail.csv"))
# A grid larger than the series, in blocks of five points of which most hold
# no cut, and in blocks of 35 at k_max 9:
@example(cfg=SweepConfig(n=30, transient=4, seed=8, grid=200, k_min=0, k_max=3, sigma=0.3,
                         detail_path="detail.csv"))
@example(cfg=SweepConfig(n=12, transient=0, seed=9, grid=80, k_min=2, k_max=9, sigma=5.0))
# Regenerated series stepped each on its own over several leaves, in a
# counting block of five points and then one of two:
@example(cfg=SweepConfig(n=2 * LEAF + 5, transient=LEAF + 2, seed=7, grid=7, k_min=0, k_max=3,
                         sigma=0.3, regenerate_per_d=True))
# One counting block of the shared series scored in slices of 17, 17 and 1,
# whose posterior over orders is taken once over all 35 points:
@example(cfg=SweepConfig(n=300, transient=5, seed=10, grid=35, k_min=0, k_max=9, sigma=1e-3,
                         order_prior="uniform", alpha=7.1, detail_path="detail.csv"))
# A one-block grid of the shared series, whose leaves are counted as they
# are cut: one leaf short, and one leaf and one state, of five points and
# of 35 at k_max 10:
@example(cfg=SweepConfig(n=LEAF - 1, transient=1, seed=11, grid=5, k_min=0, k_max=4,
                         sigma=0.3))
@example(cfg=SweepConfig(n=LEAF + 1, transient=2, seed=12, grid=35, k_min=8, k_max=10,
                         sigma=1e-3, detail_path="detail.csv"))
# Rows longer than the scoring kernel's gather budget, each scored in
# pieces: a counting block of 35 points scored in slices of 17, 17 and 1,
# then a block of one point, at k_max 16 and 17:
@example(cfg=SweepConfig(n=300, transient=5, seed=13, grid=36, k_min=15, k_max=16, sigma=0.3,
                         detail_path="detail.csv"))
@example(cfg=SweepConfig(n=300, transient=5, seed=14, grid=36, k_min=16, k_max=17, sigma=1e-3,
                         alpha=0.37))
@given(cfg=accepted_configs())
def test_run_sweep_equals_per_d_oracle_on_accepted_configs(cfg):
    # Counted in the small blocks of small_count_budget, which accepted_configs
    # draws its grids against; the default budget is one block for most grids.
    import chaosinfer.sweep as sweep_mod

    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("ignore", RuntimeWarning)
        patch.setattr(sweep_mod, "COUNT_BLOCK_BYTES", small_count_budget(cfg.k_max))
        assert run_sweep(cfg) == per_d_sweep(cfg)


def written(result, tmp, out_format, detail):
    """The bytes of the files emit writes for `result` in directory `tmp`:
    the summary, and the detail CSV if `detail`."""
    names = ["out", "detail.csv"] if detail else ["out"]
    paths = [os.path.join(tmp, name) for name in names]
    emit(result, out_format, *paths)
    files = []
    for path in paths:
        with open(path, "rb") as fh:
            files.append(fh.read())
    return files


def rebuilt(result):
    """`result` made again from its rows."""
    return SweepResult.from_rows(result.config, result.lyapunov_bits, result.rows, result.detail)


def with_cells(result, point, k, **cells):
    """`result` made from its rows with some cells of decision point `point`
    at order `k` set, in its detail row and its summary row alike: an
    estimate if k is the row's selected order, and log_evidence and p_order
    at k's place in the row's per-order lists."""
    orders = range(result.config.k_min, result.config.k_max + 1)
    j = orders.index(k)
    rows, detail = list(result.rows), list(result.detail)
    row = rows[point]
    edits = {}
    for name, value in cells.items():
        if name in ("log_evidence", "p_order"):
            edits[name] = tuple(value if at == j else old
                                for at, old in enumerate(getattr(row, name)))
        elif row.k_selected == k:
            edits[name] = value
    rows[point] = dataclasses.replace(row, **edits)
    at = point * len(orders) + j
    detail[at] = dataclasses.replace(detail[at], **cells)
    return SweepResult.from_rows(result.config, result.lyapunov_bits, rows, detail)


@settings(derandomize=True, deadline=None, max_examples=60)
@example(cfg=SweepConfig(n=300, transient=0, seed=1, grid=66, k_min=0, k_max=9, sigma=0.3,
                         alpha=0.3, regenerate_per_d=True, detail_path="detail.csv"))
@given(cfg=accepted_configs())
def test_columns_write_the_bytes_of_their_rows_on_accepted_configs(cfg):
    # A result of run_sweep, and the same result made again from its rows,
    # write the same bytes.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = run_sweep(cfg)
    # Only a result whose config names a detail_path can write a detail file.
    writes = [("json", False), ("csv", False)]
    writes += [("json", True), ("csv", True)] if cfg.detail_path is not None else []
    with tempfile.TemporaryDirectory() as tmp:
        for out_format, detail in writes:
            columns = written(result, tmp, out_format, detail)
            assert written(rebuilt(result), tmp, out_format, detail) == columns
    assert result.tally() == rebuilt(result).tally()


@pytest.mark.parametrize("hs, peak", [
    ((math.nan, 0.9, 0.2), (0.5, 2, 0.9)),
    ((0.2, 0.9, math.nan), (0.5, 2, 0.9)),
    ((0.9, math.nan, 0.9), (0.0, 2, 0.9)),  # the first of equal values
    ((math.nan, -math.inf, math.nan), (0.5, 2, -math.inf)),
    ((math.nan,) * 3, None),
], ids=["nan-first", "nan-last", "tie", "minus-inf", "all-nan"])
def test_tally_peak_is_the_first_largest_estimate_that_is_not_nan(hs, peak):
    # No float compares greater than a NaN, so a NaN must not stand as the peak.
    rows = [SweepRow(d, 2, h, 0.5, 0.0, (-2.0, -1.0), (0.25, 0.75))
            for d, h in zip((0.0, 0.5, 1.0), hs)]
    result = SweepResult.from_rows(dataclasses.replace(TINY_BARE.config, grid=3), 0.5, rows)
    assert result.tally()[-1] == peak
    assert SweepResult.from_rows(TINY_BARE.config, 0.5, ()).tally()[-1] is None


def test_partial_block_case_spans_two_blocks():
    # A full scoring slice, half a counting block, and a partial one.
    cfg = ORACLE_CASES["partial_block"]
    counted = COUNT_BLOCK_BYTES // (8 << (cfg.k_max + 1))
    assert counted // 2 < cfg.grid < counted


@pytest.mark.parametrize("k_max", [0, 4])
def test_wide_regenerated_block_steps_its_series_in_lockstep(monkeypatch, k_max):
    # A block of LOCKSTEP_MIN_POINTS points steps its series together, so the
    # only series stepped on its own is the shared one, for lambda.
    stepped, widths = [], []
    real_series, real_lockstep = dynamics.step_series, dynamics.step_lockstep

    def counted_series(map_spec, noise, rng, x, out):
        stepped.append(rng)
        return real_series(map_spec, noise, rng, x, out)

    def counted_lockstep(map_spec, noise, rngs, x, out):
        widths.append(len(x))
        return real_lockstep(map_spec, noise, rngs, x, out)

    monkeypatch.setattr(dynamics, "step_series", counted_series)
    monkeypatch.setattr(dynamics, "step_lockstep", counted_lockstep)
    cfg = SweepConfig(n=400, grid=LOCKSTEP_MIN_POINTS, k_min=0, k_max=k_max,
                      regenerate_per_d=True)
    result = run_sweep(cfg)
    assert stepped and len({id(rng) for rng in stepped}) == 1
    assert widths and set(widths) == {LOCKSTEP_MIN_POINTS}
    assert result == per_d_sweep(cfg)


def test_default_ensemble_steps_its_series_in_one_lockstep_run(monkeypatch):
    # At k_max 8 a counting block holds 256 points, so 200 regenerated
    # series step together, though they are scored in two slices; the shared
    # series, started first, steps on its own.
    started, widths = [], []
    real_start, real_lockstep = dynamics.start_lockstep, dynamics.step_lockstep

    def counted_start(seeds):
        started.append(len(seeds))
        return real_start(seeds)

    def counted_lockstep(map_spec, noise, rngs, x, out):
        widths.append(len(x))
        return real_lockstep(map_spec, noise, rngs, x, out)

    monkeypatch.setattr(dynamics, "start_lockstep", counted_start)
    monkeypatch.setattr(dynamics, "step_lockstep", counted_lockstep)
    run_sweep(SweepConfig(n=300, transient=10, grid=200, k_max=8, regenerate_per_d=True))
    assert started == [1, 200]
    assert widths and set(widths) == {200}


def test_counting_memory_is_bounded_whatever_the_grid():
    # Past the result, 40 bytes per (point, order) cell and 24 per point for
    # its d, selected order and place in the grid, the peak is one counting
    # block's order-k_max tables, COUNT_BLOCK_BYTES, and what scoring a
    # slice of half the block adds: at most two lower orders, the larger a
    # quarter of the block, and the terms of one piece of at most
    # entropy._GATHER_CELLS cells with its context totals, 192 KiB.  That is
    # about 1.55 MiB at k_max 8, where each slice held all of its lower
    # orders and gathered the terms of its whole top table at once, 2.32 MiB.
    # Counting adds its events in place, so the window chunk's temporaries
    # are smaller than those.
    def peak(grid):
        cfg = SweepConfig(n=2000, transient=0, grid=grid, k_min=1, k_max=8)
        tracemalloc.start()
        try:
            run_sweep(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1000)  # first-call allocations
    for grid in (1000, 4000):
        assert peak(grid) - grid * (8 * 40 + 24) <= COUNT_BLOCK_BYTES + (3 << 18), grid


def test_regenerated_block_memory_does_not_grow_with_n(monkeypatch):
    # From n = 2 * LEAF on no chunk buffer grows with n; a smaller leaf keeps
    # the series short.  A block of 64 points steps its series in lockstep,
    # one of 8 steps each series on its own.
    monkeypatch.setattr(dynamics, "LEAF", 1 << 10)

    def peak(n, grid):
        cfg = SweepConfig(n=n, transient=0, grid=grid, k_min=1, k_max=2, regenerate_per_d=True)
        tracemalloc.start()
        try:
            run_sweep(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n = 10_000
    # The counts of the larger n fill the scoring tables to their cap.
    run_sweep(SweepConfig(n=4 * n, transient=0, grid=8, k_min=1, k_max=2, regenerate_per_d=True))
    for grid in (64, 8):
        peak(n, grid)  # first-call allocations
        # The shared series, stepped only for lambda, keeps nothing per state:
        # under a byte per added state is left for peaks that differ by a few
        # small buffers from run to run.  Counting the regenerated series one
        # whole trajectory at a time would add about 50 bytes a state.
        assert peak(4 * n, grid) - peak(n, grid) <= 3 * n, grid


def test_regenerated_sweep_frees_each_counting_block_before_counting_the_next():
    # At k_max 8 a counting block holds 256 points, so grid 256 is one block,
    # and grids 600 and 1000 are three and four.  Past the result, 344 bytes
    # a point at eight orders, the peak stays that of one block and its
    # scoring: holding the block before while the next is counted adds a
    # block's tables, up to 1 MiB.
    def peak(grid):
        cfg = SweepConfig(n=2000, transient=0, grid=grid, k_max=8, regenerate_per_d=True)
        tracemalloc.start()
        try:
            run_sweep(cfg)
            return tracemalloc.get_traced_memory()[1] - grid * (8 * 40 + 24)
        finally:
            tracemalloc.stop()

    peak(256)  # first-call allocations
    one_block = peak(256)
    for grid in (600, 1000):
        assert peak(grid) - one_block <= 128 << 10, grid


def shared_series_peak(cfg):
    """The traced memory peak of run_sweep(cfg)."""
    tracemalloc.start()
    try:
        run_sweep(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k_max", [16, 17])
def test_one_point_blocks_hold_little_past_their_table(k_max):
    # Each point is a counting block of its own, whose one table alone
    # fills COUNT_BLOCK_BYTES.  Counting holds it and the last table of the block
    # before; scoring holds it, at most two lower orders, the larger half
    # its size, and one gather piece.  Holding every lower order, the whole
    # table's terms and context totals, a dump row and the next block's
    # start row next to the block's table took 5.5 times the table.
    top = 8 << (k_max + 1)
    assert COUNT_BLOCK_BYTES < 2 * top  # one point a block
    cfg = SweepConfig(n=2000, transient=0, grid=3, k_max=k_max)
    shared_series_peak(cfg)  # first-call allocations
    assert shared_series_peak(cfg) <= 2.5 * top + (256 << 10)


def test_one_block_grid_holds_no_cut():
    # Grid 50 is one counting block at k_max 8, so each leaf's cuts are
    # counted as they are taken and no state's cut is held: the peak grows
    # by under 64 KiB, where holding the cuts, a byte a state, grows it by
    # 384 KiB.
    small, large = (SweepConfig(n=n, transient=0, grid=50) for n in (1 << 17, 1 << 19))
    shared_series_peak(small)  # first-call allocations
    assert shared_series_peak(large) - shared_series_peak(small) <= 64 << 10


def test_several_block_grid_holds_one_byte_a_state():
    # Grid 200 is two counting blocks at k_max 9, which replay the held
    # cuts, a byte a state, not the state and lambda's slope, 16 bytes.
    small, large = (SweepConfig(n=n, transient=0, grid=200, k_max=9) for n in (1 << 17, 1 << 19))
    assert COUNT_BLOCK_BYTES // (8 << 10) < small.grid < 256
    shared_series_peak(small)  # first-call allocations
    assert shared_series_peak(large) - shared_series_peak(small) <= 2 * ((1 << 19) - (1 << 17))


@pytest.mark.parametrize("transient", [0, 1, 2])
@pytest.mark.parametrize("n", [LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 7])
def test_sweep_lyapunov_equals_the_trajectory_estimate(n, transient):
    # The shared series is stepped and its slopes summed a leaf at a time,
    # and still gives lyapunov_exponent of the whole trajectory bit for bit.
    cfg = SweepConfig(n=n, transient=transient, seed=7, grid=3, k_min=0, k_max=1)
    spec, noise = MapSpec(cfg.family, cfg.r), NoiseSpec(cfg.sigma)
    traj = generate_trajectory(spec, noise, n, transient, cfg.seed)
    assert run_sweep(cfg).lyapunov_bits == lyapunov_exponent(spec, traj)


def test_vanishing_derivative_is_one_warning_from_the_sweep():
    # At r = 2 the noiseless map settles on x = 1/2, where f' = 0.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_sweep(SweepConfig(r=2.0, sigma=0.0, n=2 * LEAF + 7, grid=5, k_max=2))
    assert result.lyapunov_bits == -math.inf
    vanishing = [w for w in caught if "derivative vanishes" in str(w.message)]
    assert len(vanishing) == 1
    assert vanishing[0].filename == __file__  # run_sweep's caller, as the top-of-range warning


def test_top_of_range_rows_are_reported_in_one_warning():
    with pytest.warns(RuntimeWarning, match="top of the range") as record:
        result = run_sweep(SMALL)
    top = [row.d for row in result.rows if row.k_selected == SMALL.k_max]
    assert top, "SMALL selects its top order at some decision points"
    messages = [str(w.message) for w in record if "top of the range" in str(w.message)]
    assert len(messages) == 1
    assert messages[0].startswith(f"{len(top)} of {SMALL.grid} decision points selected order 3")
    assert f"d = {top[0]:g}" in messages[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_sweep(dataclasses.replace(SMALL, k_min=SMALL.k_max))  # one order: no warning


def test_emit_csv_schema_and_row_count(tmp_path, small_result):
    path = tmp_path / "out.csv"
    emit(small_result, "csv", str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == SMALL.grid + 1
    assert lines[0].split(",") == SMALL_HEADER
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert int(first[1]) in range(1, 4)


def test_emit_csv_floats_round_trip(tmp_path, small_result):
    path = tmp_path / "out.csv"
    emit(small_result, "csv", str(path))
    assert_csv_holds(path, SMALL_HEADER, small_result.rows)


def test_emit_json_round_trip(tmp_path, small_result):
    path = tmp_path / "out.json"
    emit(small_result, "json", str(path))
    loaded = load_sweep_json(str(path))
    assert loaded == small_result


def _no_constants(name):
    raise ValueError(f"{name} is not strict JSON")


def test_json_is_strict_and_keeps_infinite_values(tmp_path):
    # A superstable fixed point makes the Lyapunov estimate -inf.
    path = tmp_path / "out.json"
    argv = ["--r", "2", "--sigma", "0", "--n", "500", "--grid", "5", "--k-max", "2",
            "--format", "json", "--out", str(path)]
    assert main(argv) == 0
    obj = json.loads(path.read_text(), parse_constant=_no_constants)
    assert obj["lyapunov_bits"] == "-inf"
    loaded = load_sweep_json(str(path))
    assert loaded.lyapunov_bits == -math.inf
    assert loaded.rows == run_sweep(parse_config(argv)).rows


def test_json_reemits_non_finite_values_to_the_same_bytes(tmp_path):
    cfg = SweepConfig(n=900, transient=50, seed=2, grid=4, k_min=1, k_max=3,
                      detail_path="detail.csv")
    result = run_sweep(cfg)
    k0, k1 = result.rows[0].k_selected, result.rows[1].k_selected
    other = 1 if k1 != 1 else 2
    # Each cell is written twice, in a summary row and in a detail row.
    result = with_cells(result, 0, k0, h_expected_bits=math.nan, log_evidence=-math.inf)
    result = with_cells(result, 1, k1, h_rate_q_bits=math.inf, kl_correction_bits=math.nan,
                        p_order=math.nan)
    result = with_cells(result, 1, other, p_order=math.inf)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    emit(result, "json", str(first))
    text = first.read_text()
    json.loads(text, parse_constant=_no_constants)
    # three NaN cells, plus the error of each row
    assert text.count("null") == 2 * 3 + len(result.rows)
    assert text.count('"inf"') == 2 * 2 and text.count('"-inf"') == 2 * 1
    loaded = load_sweep_json(str(first))
    assert loaded == result
    assert math.isnan(loaded.detail[k0 - 1].h_expected_bits)
    assert loaded.rows[0].log_evidence[k0 - 1] == -math.inf
    assert loaded.rows[1].p_order[other - 1] == math.inf
    emit(loaded, "json", str(second))
    assert second.read_bytes() == first.read_bytes()
    WRITES["detail"](result, str(tmp_path / "detail.csv"))
    assert_csv_holds(tmp_path / "detail.csv", DETAIL_HEADER, result.detail)


def test_numpy_floats_in_rows_are_written_as_floats(tmp_path):
    # The repr of a numpy float names its type; it is written as the float.
    plain = SweepResult.from_rows(TINY.config, TINY.lyapunov_bits, TINY.rows[:1],
                                  TINY.detail[:2])
    row = dataclasses.replace(TINY.rows[0], h_expected_bits=np.float64(0.25),
                              log_evidence=(np.float64(-1.5), -math.inf))
    detail = (dataclasses.replace(TINY.detail[0], h_expected_bits=np.float64(math.nan)),
              dataclasses.replace(TINY.detail[1], p_order=np.float64(0.9)))
    numpy_rows = SweepResult.from_rows(TINY.config, np.float64(TINY.lyapunov_bits), (row,),
                                       detail)
    assert numpy_rows == plain
    for write in WRITES.values():
        write(plain, str(tmp_path / "plain"))
        write(numpy_rows, str(tmp_path / "numpy"))
        assert (tmp_path / "numpy").read_bytes() == (tmp_path / "plain").read_bytes()


# A hand-built result with every kind of cell: NaN and infinities, in the
# summary and detail rows, and a config text holding a quote, a newline, a
# brace, a comma and a non-ASCII character.  The detail row of the selected
# order holds the summary row's estimates.
TINY = SweepResult.from_rows(
    SweepConfig(n=100, grid=2, k_min=1, k_max=2, alpha=0.5, out_format="json",
                out_path='bad "x", {"d": 1},\n} é.json', detail_path="detail.csv"),
    0.9791235781734471,
    (
        SweepRow(0.0, 2, 0.25, 0.125, math.inf, (-1.5, -math.inf), (0.1, 0.9)),
        SweepRow(1.0, 1, 0.5, math.nan, 0.0625, (-2.0, -3.0), (0.75, 0.25)),
    ),
    (
        DetailRow(0.0, 1, math.nan, 0.375, 1e-05, -1.5, 0.1),
        DetailRow(0.0, 2, 0.25, 0.125, math.inf, -math.inf, 0.9),
        DetailRow(1.0, 1, 0.5, math.nan, 0.0625, -2.0, 0.75),
        DetailRow(1.0, 2, math.nan, math.nan, -math.inf, -3.0, 0.25),
    ),
)
# Without detail rows.
TINY_BARE = SweepResult.from_rows(
    dataclasses.replace(TINY.config, detail_path=None), -math.inf, TINY.rows,
)
# Cells that are easy to write wrong: 0.0 and -0.0, which compare equal,
# in kl_correction, whose texts are made once per distinct value; and
# config texts, an empty one and one that holds inf, nan and None and ends
# in a digit.
TINY_TEXTS = SweepResult.from_rows(
    dataclasses.replace(TINY.config, out_path="inf nan None -inf 2", detail_path=""),
    TINY.lyapunov_bits,
    (
        SweepRow(0.0, 1, 0.0, 0.0, -0.0, (-0.0, 0.0), (1.0, 0.0)),
        SweepRow(1.0, 2, -0.0, 0.0, 0.0, (0.0, -0.0), (0.0, 1.0)),
    ),
    (
        DetailRow(0.0, 1, 0.0, 0.0, -0.0, -0.0, 1.0),
        DetailRow(0.0, 2, 0.0, -0.0, 0.0, 0.0, 0.0),
        DetailRow(1.0, 1, 0.0, 0.0, -0.0, 0.0, 0.0),
        DetailRow(1.0, 2, -0.0, 0.0, 0.0, -0.0, 1.0),
    ),
)
# ensure_ascii escapes the non-ASCII character.
TINY_CONFIG_JSON = (
    '{"family": "logistic", "r": 4.0, "sigma": 0.001, "n": 100, "transient": 1000, '
    '"seed": 0, "grid": 2, "k_min": 1, "k_max": 2, "order_prior": "size-penalty", '
    '"alpha": 0.5, "regenerate_per_d": false, "out_format": "json", '
    r'"out_path": "bad \"x\", {\"d\": 1},\n} \u00e9.json", '
    '"detail_path": "detail.csv"}'
)
TINY_ROWS_JSON = (
    '{"d": 0.0, "k_selected": 2, "h_expected_bits": 0.25, "h_rate_q_bits": 0.125, '
    '"kl_correction_bits": "inf", "log_evidence": [-1.5, "-inf"], "p_order": [0.1, 0.9], '
    '"error": null}',
    '{"d": 1.0, "k_selected": 1, "h_expected_bits": 0.5, "h_rate_q_bits": null, '
    '"kl_correction_bits": 0.0625, "log_evidence": [-2.0, -3.0], "p_order": [0.75, 0.25], '
    '"error": null}',
)
TINY_DETAIL_JSON = (
    '{"d": 0.0, "k": 1, "h_expected_bits": null, "h_rate_q_bits": 0.375, '
    '"kl_correction_bits": 1e-05, "log_evidence": -1.5, "p_order": 0.1}',
    '{"d": 0.0, "k": 2, "h_expected_bits": 0.25, "h_rate_q_bits": 0.125, '
    '"kl_correction_bits": "inf", "log_evidence": "-inf", "p_order": 0.9}',
    '{"d": 1.0, "k": 1, "h_expected_bits": 0.5, "h_rate_q_bits": null, '
    '"kl_correction_bits": 0.0625, "log_evidence": -2.0, "p_order": 0.75}',
    '{"d": 1.0, "k": 2, "h_expected_bits": null, "h_rate_q_bits": null, '
    '"kl_correction_bits": "-inf", "log_evidence": -3.0, "p_order": 0.25}',
)
BARE_CONFIG_JSON = TINY_CONFIG_JSON.replace('"detail.csv"', "null")
TEXTS_CONFIG_JSON = (TINY_CONFIG_JSON.split('"out_path"')[0]
                     + '"out_path": "inf nan None -inf 2", "detail_path": ""}')
TEXTS_ROWS_JSON = (
    '{"d": 0.0, "k_selected": 1, "h_expected_bits": 0.0, "h_rate_q_bits": 0.0, '
    '"kl_correction_bits": -0.0, "log_evidence": [-0.0, 0.0], "p_order": [1.0, 0.0], '
    '"error": null}',
    '{"d": 1.0, "k_selected": 2, "h_expected_bits": -0.0, "h_rate_q_bits": 0.0, '
    '"kl_correction_bits": 0.0, "log_evidence": [0.0, -0.0], "p_order": [0.0, 1.0], '
    '"error": null}',
)
TEXTS_DETAIL_JSON = (
    '{"d": 0.0, "k": 1, "h_expected_bits": 0.0, "h_rate_q_bits": 0.0, '
    '"kl_correction_bits": -0.0, "log_evidence": -0.0, "p_order": 1.0}',
    '{"d": 0.0, "k": 2, "h_expected_bits": 0.0, "h_rate_q_bits": -0.0, '
    '"kl_correction_bits": 0.0, "log_evidence": 0.0, "p_order": 0.0}',
    '{"d": 1.0, "k": 1, "h_expected_bits": 0.0, "h_rate_q_bits": 0.0, '
    '"kl_correction_bits": -0.0, "log_evidence": 0.0, "p_order": 0.0}',
    '{"d": 1.0, "k": 2, "h_expected_bits": -0.0, "h_rate_q_bits": 0.0, '
    '"kl_correction_bits": 0.0, "log_evidence": -0.0, "p_order": 1.0}',
)


def objects_json(objects):
    """The lines of a JSON list of row or detail objects, one object per line."""
    return ",\n".join(f"    {o}" for o in objects) + "\n"


@pytest.mark.parametrize("result, expected", [
    (TINY,
     '{\n'
     f'  "config": {TINY_CONFIG_JSON},\n'
     '  "lyapunov_bits": 0.9791235781734471,\n'
     f'  "rows": [\n{objects_json(TINY_ROWS_JSON)}  ],\n'
     f'  "detail": [\n{objects_json(TINY_DETAIL_JSON)}  ]\n'
     '}\n'),
    (TINY_BARE,
     '{\n'
     f'  "config": {BARE_CONFIG_JSON},\n'
     '  "lyapunov_bits": "-inf",\n'
     f'  "rows": [\n{objects_json(TINY_ROWS_JSON)}  ],\n'
     '  "detail": []\n'
     '}\n'),
    (TINY_TEXTS,
     '{\n'
     f'  "config": {TEXTS_CONFIG_JSON},\n'
     '  "lyapunov_bits": 0.9791235781734471,\n'
     f'  "rows": [\n{objects_json(TEXTS_ROWS_JSON)}  ],\n'
     f'  "detail": [\n{objects_json(TEXTS_DETAIL_JSON)}  ]\n'
     '}\n'),
    # No rows and no detail rows: only finite floats.
    (SweepResult.from_rows(TINY.config, TINY.lyapunov_bits, ()),
     '{\n'
     f'  "config": {TINY_CONFIG_JSON},\n'
     '  "lyapunov_bits": 0.9791235781734471,\n'
     '  "rows": [],\n'
     '  "detail": []\n'
     '}\n'),
], ids=["detail", "no-detail", "texts", "finite"])
def test_json_layout_is_frozen(tmp_path, result, expected):
    # One row object per line inside a fixed outer layout; still strict JSON.
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    emit(result, "json", str(first))
    assert first.read_text(encoding="utf-8") == expected
    json.loads(expected, parse_constant=_no_constants)
    loaded = load_sweep_json(str(first))
    assert loaded == result
    emit(loaded, "json", str(second))
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("write, result, expected", [
    ("csv", TINY,
     "d,k_selected,h_expected_bits,h_rate_q_bits,kl_correction_bits,log_evidence_k1,"
     "log_evidence_k2,p_order_k1,p_order_k2,error\n"
     "0.0,2,0.25,0.125,inf,-1.5,-inf,0.1,0.9,\n"
     "1.0,1,0.5,,0.0625,-2.0,-3.0,0.75,0.25,\n"),
    ("csv", TINY_BARE,
     "d,k_selected,h_expected_bits,h_rate_q_bits,kl_correction_bits,log_evidence_k1,"
     "log_evidence_k2,p_order_k1,p_order_k2,error\n"
     "0.0,2,0.25,0.125,inf,-1.5,-inf,0.1,0.9,\n"
     "1.0,1,0.5,,0.0625,-2.0,-3.0,0.75,0.25,\n"),
    ("csv", TINY_TEXTS,
     "d,k_selected,h_expected_bits,h_rate_q_bits,kl_correction_bits,log_evidence_k1,"
     "log_evidence_k2,p_order_k1,p_order_k2,error\n"
     "0.0,1,0.0,0.0,-0.0,-0.0,0.0,1.0,0.0,\n"
     "1.0,2,-0.0,0.0,0.0,0.0,-0.0,0.0,1.0,\n"),
    ("detail", TINY,
     "d,k,h_expected_bits,h_rate_q_bits,kl_correction_bits,log_evidence,p_order\n"
     "0.0,1,,0.375,1e-05,-1.5,0.1\n"
     "0.0,2,0.25,0.125,inf,-inf,0.9\n"
     "1.0,1,0.5,,0.0625,-2.0,0.75\n"
     "1.0,2,,,-inf,-3.0,0.25\n"),
], ids=["summary", "summary-no-text", "summary-texts", "detail"])
def test_csv_bytes_are_frozen(tmp_path, write, result, expected):
    # Blank cells for None and NaN, inf and -inf, repr floats; 0.0 and -0.0 apart.
    path = tmp_path / "out.csv"
    WRITES[write](result, str(path))
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.fixture(scope="module")
def large_result():
    """A result whose JSON summary with detail rows takes about 2.5 MB."""
    return run_sweep(SweepConfig(n=2000, grid=2500, k_max=3, detail_path="detail.csv"))


def test_emit_streams_rows_in_bounded_memory(tmp_path, large_result):
    # Neither writer holds the whole file: peak traced memory stays under half its size.
    for write, name in (("json", "out.json"), ("detail", "detail.csv")):
        path = tmp_path / name
        tracemalloc.start()
        try:
            WRITES[write](large_result, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        if write == "json":
            assert size >= 2_000_000
        assert peak <= 0.5 * size, (write, peak, size)


WRITES = {
    "csv": lambda result, path: emit(result, "csv", path),
    "json": lambda result, path: emit(result, "json", path),
    # The detail CSV, with its summary thrown away.
    "detail": lambda result, path: emit(result, "csv", os.devnull, path),
}


def test_json_and_detail_csv_in_one_pass_equal_separate_writes(tmp_path):
    # Pieces of plain numbers and one with NaN and infinities, and the
    # hand-built results with every kind of cell.
    base = run_sweep(WIDE)
    mixed = with_cells(base, 70, base.rows[70].k_selected, h_expected_bits=math.nan,
                       log_evidence=-math.inf, p_order=math.inf)
    for result in (base, mixed, TINY, TINY_TEXTS):
        one, two = tmp_path / "one", tmp_path / "two"
        emit(result, "json", str(one / "out.json"), str(one / "detail.csv"))
        emit(result, "json", str(two / "out.json"))
        WRITES["detail"](result, str(two / "detail.csv"))
        for name in ("out.json", "detail.csv"):
            assert (one / name).read_bytes() == (two / name).read_bytes(), name


@pytest.fixture
def fails_part_way(monkeypatch):
    """A WIDE result with an infinite cell at its last point, which the
    writers fail to spell: they fail in their last piece, part way through
    each file."""
    import chaosinfer.sweep as sweep_mod

    class Failing(dict):
        def get(self, text, default=None):
            if text == "inf":
                raise RuntimeError("failed part way")
            return super().get(text, default)

    for fmt, spelling in sweep_mod._SPELLING.items():
        monkeypatch.setitem(sweep_mod._SPELLING, fmt, Failing(spelling))
    result = run_sweep(WIDE)
    return with_cells(result, WIDE.grid - 1, result.rows[-1].k_selected, h_rate_q_bits=math.inf)


def test_failed_one_pass_write_leaves_both_previous_files(tmp_path, fails_part_way):
    out, detail_csv = tmp_path / "out.json", tmp_path / "detail.csv"
    out.write_text("previous\n")
    detail_csv.write_text("previous detail\n")
    with pytest.raises(RuntimeError):
        emit(fails_part_way, "json", str(out), str(detail_csv))
    assert out.read_text() == "previous\n"
    assert detail_csv.read_text() == "previous detail\n"
    assert sorted(os.listdir(tmp_path)) == ["detail.csv", "out.json"]


def test_failed_csv_and_detail_write_leaves_both_previous_files(tmp_path, fails_part_way):
    # A CSV summary and its detail CSV are replaced together too.
    out, detail_csv = tmp_path / "out.csv", tmp_path / "detail.csv"
    out.write_text("previous\n")
    detail_csv.write_text("previous detail\n")
    with pytest.raises(RuntimeError):
        emit(fails_part_way, "csv", str(out), str(detail_csv))
    assert out.read_text() == "previous\n"
    assert detail_csv.read_text() == "previous detail\n"
    assert sorted(os.listdir(tmp_path)) == ["detail.csv", "out.csv"]
    if os.path.exists("/dev/full"):
        # A detail file on a full device: the run fails and writes no summary.
        summary = tmp_path / "s.csv"
        assert main(["--n", "500", "--grid", "3", "--k-max", "2", "--format", "csv",
                     "--out", str(summary), "--detail", "/dev/full"]) == 2
        assert not summary.exists()


@pytest.mark.parametrize("write", WRITES)
def test_failed_write_leaves_the_previous_file(tmp_path, write, fails_part_way):
    path = tmp_path / "out"
    path.write_text("previous\n")
    with pytest.raises(RuntimeError, match="failed part way"):
        WRITES[write](fails_part_way, str(path))
    assert path.read_text() == "previous\n"
    assert os.listdir(tmp_path) == ["out"]


def test_emit_keeps_the_permission_bits_of_open(tmp_path, small_result):
    def mode(path):
        return stat.S_IMODE(os.stat(path).st_mode)

    with open(tmp_path / "plain.csv", "w"):
        pass
    path = tmp_path / "out.csv"
    emit(small_result, "csv", str(path))
    assert mode(path) == mode(tmp_path / "plain.csv")
    os.chmod(path, 0o640)
    emit(small_result, "json", str(path))
    assert mode(path) == 0o640
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "plain.csv"]


def test_emit_writes_through_a_symlink_and_into_a_pipe(tmp_path, small_result):
    emit(small_result, "csv", str(tmp_path / "expected.csv"))
    expected = (tmp_path / "expected.csv").read_text()
    link, pipe = tmp_path / "link.csv", tmp_path / "pipe"
    link.symlink_to("real.csv")
    emit(small_result, "csv", str(link))
    assert link.is_symlink() and (tmp_path / "real.csv").read_text() == expected
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
    reader.start()
    emit(small_result, "csv", str(pipe))
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [expected] and stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["expected.csv", "link.csv", "pipe", "real.csv"]


def test_emit_rejects_unknown_format(tmp_path, small_result):
    with pytest.raises(ConfigError):
        emit(small_result, "xml", str(tmp_path / "out.xml"))


def test_emit_refuses_detail_of_a_result_whose_config_names_none(tmp_path):
    # The result holds no detail rows to write; nothing is written.
    result = run_sweep(SweepConfig(n=500, grid=5, k_max=2))
    for out_format in FORMAT_CHOICES:
        with pytest.raises(ConfigError, match="names no detail_path"):
            emit(result, out_format, str(tmp_path / "a.csv"), str(tmp_path / "d.csv"))
    assert list(tmp_path.iterdir()) == []
    # Made from its rows, it holds no detail rows either.
    with pytest.raises(ConfigError, match="names no detail_path"):
        emit(rebuilt(result), "csv", str(tmp_path / "a.csv"), str(tmp_path / "d.csv"))
    assert list(tmp_path.iterdir()) == []
    # Every order is scored whatever the outputs, so a detail_path may be put
    # on the result or taken off, and it then equals the run with or without one.
    scored = run_sweep(dataclasses.replace(result.config, detail_path="d.csv"))
    assert dataclasses.replace(result, config=scored.config) == scored
    assert dataclasses.replace(scored, config=result.config) == result
    assert result != scored


@pytest.mark.parametrize("regenerate", [False, True], ids=["shared", "regenerated"])
def test_scores_do_not_depend_on_the_outputs(regenerate):
    cfg = SweepConfig(n=1200, transient=50, seed=3, grid=40, k_min=0, k_max=5,
                      regenerate_per_d=regenerate)
    bare, detailed = (run_sweep(c)._scores
                      for c in (cfg, dataclasses.replace(cfg, detail_path="detail.csv")))
    for name in ("d", "best", "values"):
        a, b = getattr(bare, name), getattr(detailed, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert not np.isnan(bare.values).any()


def test_emit_rejects_one_file_for_summary_and_detail(tmp_path, small_result):
    # The detail file would replace the summary; the config check says so
    # for the library too, before anything is written.
    path = tmp_path / "a.csv"
    for detail in (path, tmp_path / "sub" / ".." / "a.csv"):
        with pytest.raises(ConfigError, match="both name"):
            emit(small_result, "csv", str(path), str(detail))
    assert list(tmp_path.iterdir()) == []


def test_emit_detail_rows(tmp_path):
    cfg = SweepConfig(n=900, transient=50, seed=2, grid=4, k_min=1, k_max=3,
                      detail_path=str(tmp_path / "detail.csv"))
    result = run_sweep(cfg)
    assert len(result.detail) == 4 * 3
    WRITES["detail"](result, cfg.detail_path)
    lines = (tmp_path / "detail.csv").read_text().splitlines()
    assert len(lines) == 4 * 3 + 1
    assert lines[0].split(",")[:2] == ["d", "k"]
    table = assert_csv_holds(tmp_path / "detail.csv", DETAIL_HEADER, result.detail)
    emit(result, "json", str(tmp_path / "out.json"))
    detail = json.loads((tmp_path / "out.json").read_text())["detail"]
    assert [list(dr) for dr in detail] == [DETAIL_HEADER] * len(result.detail)
    assert [[float(v) for v in dr.values()] for dr in detail] == [
        [float(cell) for cell in cells] for cells in table[1:]
    ]


def test_results_with_nan_cells_equal_their_reruns_and_reloads(tmp_path):
    # Each read of a NaN cell gives a new NaN float, and nan != nan; results
    # compare a NaN cell equal to a NaN cell.  Made from rows without detail
    # rows, a result holds NaN entropy cells at each row's unselected orders,
    # which a detail_path put on it writes as empty cells.
    cfg = SweepConfig(n=1200, transient=50, seed=3, grid=5, k_min=1, k_max=5)
    result = rebuilt(run_sweep(cfg))
    assert np.isnan(result._scores.values[:3]).any()
    assert rebuilt(run_sweep(cfg)) == result
    detailed = dataclasses.replace(result, config=dataclasses.replace(cfg, detail_path="d.csv"))
    assert detailed != run_sweep(detailed.config)
    for r in (result, detailed):
        emit(r, "json", str(tmp_path / "out.json"))
        assert load_sweep_json(str(tmp_path / "out.json")) == r
    emit(detailed, "csv", str(tmp_path / "out.csv"), str(tmp_path / "d.csv"))
    assert_csv_holds(tmp_path / "d.csv", DETAIL_HEADER, detailed.detail)
    assert any(math.isnan(dr.h_expected_bits) for dr in detailed.detail)
    assert TINY == rebuilt(TINY)
    # A cell that differs still makes the results differ.
    rows = list(result.rows)
    rows[2] = dataclasses.replace(rows[2], h_rate_q_bits=rows[2].h_rate_q_bits + 0.5)
    assert SweepResult.from_rows(cfg, result.lyapunov_bits, rows) != result


def test_a_result_holds_scores_of_its_order_range():
    # Rows in place of scores, the constructor form of earlier releases.
    with pytest.raises(ValueError, match="from_rows"):
        SweepResult(TINY.config, TINY.lyapunov_bits, TINY.rows)
    with pytest.raises(ValueError):
        dataclasses.replace(TINY, config=dataclasses.replace(TINY.config, k_max=3))
    # A NaN config cell equals a NaN; results are not hashable.
    nan_r = [SweepResult(dataclasses.replace(TINY.config, r=nan), nan, TINY._scores)
             for nan in (float("nan"), np.float64("nan"))]
    assert nan_r[0] == nan_r[1] != TINY
    with pytest.raises(TypeError):
        hash(TINY)


def emit_layout(obj) -> str:
    """A parsed JSON summary written back in emit's layout: each member of
    the top object on its own line, and each row or detail object of a list
    on its own line, all by json.dumps."""
    members = []
    for key, value in obj.items():
        if isinstance(value, list):
            value = "[" + ",".join(f"\n    {json.dumps(o)}" for o in value) + (
                "\n  ]" if value else "]")
        else:
            value = json.dumps(value)
        members.append(f"\n  {json.dumps(key)}: {value}")
    return "{" + ",".join(members) + "\n}\n"


def _set(part, at, **cells):
    """An edit of a parsed JSON summary: set cells of one of its rows or
    detail objects."""
    return lambda obj: obj[part][at].update(cells)


def _set_d(d):
    """An edit of TINY's JSON summary: set d of row 0 and of its detail objects."""
    return lambda obj: [part.update(d=d) for part in (obj["rows"][0], *obj["detail"][:2])]


# Row 0 of TINY made to select order 1, with that order's estimates.
ORDER_1 = {"h_expected_bits": math.nan, "h_rate_q_bits": 0.375, "kl_correction_bits": 1e-05}

# Edits of TINY's JSON after which no result writes the file.  Each edits
# the parsed object in place, which is then written in emit's layout, or
# returns the text to write.
BROKEN_JSON = {
    "detail-dropped": lambda obj: obj["detail"].pop(),
    "detail-added": lambda obj: obj["detail"].append(obj["detail"][0]),
    "detail-without-config": lambda obj: obj["config"].update(detail_path=None),
    "order-above-range": _set("rows", 0, k_selected=3),
    "order-below-range": _set("rows", 0, k_selected=0),
    "error-text": _set("rows", 1, error="x"),
    "null-order": _set("rows", 1, k_selected=None),
    "short-list": _set("rows", 0, log_evidence=[-1.5]),
    "long-list": _set("rows", 0, p_order=[0.1, 0.9, 0.0]),
    "estimate-not-in-detail": _set("rows", 0, h_expected_bits=0.5),
    "evidence-not-in-row": _set("detail", 0, log_evidence=-2.5),
    "posterior-not-in-row": _set("detail", 1, p_order=0.8),
    "detail-of-another-point": _set("detail", 0, d=1.0),
    "detail-of-another-order": _set("detail", 0, k=2),
    # Orders that equal an integer but are not one.
    "float-order": _set("rows", 0, k_selected=2.0),
    "bool-order": _set("rows", 0, k_selected=True, **ORDER_1),
    "float-detail-order": _set("detail", 0, k=1.0),
    "bool-detail-order": _set("detail", 0, k=True),
    # Structural edits: a part or a cell missing, a scalar for a list, a cell of the wrong type.
    "no-detail-key": lambda obj: obj.pop("detail"),
    "row-without-d": lambda obj: obj["rows"][0].pop("d"),
    "scalar-log-evidence": _set("rows", 0, log_evidence=-1.5),
    "rows-not-a-list": lambda obj: obj.update(rows=5),
    "config-without-alpha": lambda obj: obj["config"].pop("alpha"),
    "float-k-max": lambda obj: obj["config"].update(k_max=2.0),
    "d-beyond-floats": _set("rows", 0, d=10**400),
    # A d that is no decision point, written as JSON's NaN and Infinity.
    "nan-d": _set_d(math.nan),
    "infinite-d": _set_d(math.inf),
    # Config values that validate rejects.
    "unknown-family": lambda obj: obj["config"].update(family="henon"),
    "negative-n": lambda obj: obj["config"].update(n=-4),
    "negative-sigma": lambda obj: obj["config"].update(sigma=-1.0),
    "out-path-not-text": lambda obj: obj["config"].update(out_path=5),
    # Float cells in spellings emit never writes: texts, a bool, and json's
    # NaN and -Infinity, each of which float() or json reads as a float.
    "text-number": _set("rows", 1, h_expected_bits="0.5"),
    "text-nan": _set("detail", 0, h_expected_bits="nan"),
    "signed-text-inf": _set("rows", 0, kl_correction_bits="+inf"),
    "bool-number": _set("detail", 2, d=True),
    "json-nan": _set("rows", 1, h_rate_q_bits=math.nan),
    "json-negative-infinity": _set("detail", 3, kl_correction_bits=-math.inf),
    "text-r": lambda obj: obj["config"].update(r="4.0"),
    "padded-text-sigma": lambda obj: obj["config"].update(sigma=" 1e-3 "),
    "bool-lyapunov": lambda obj: obj.update(lyapunov_bits=True),
    "json-nan-lyapunov": lambda obj: obj.update(lyapunov_bits=math.nan),
    # Cells that numpy's float conversion reads but emit never writes (a
    # one-item list for a float, a text inside a per-order list), an object
    # in a float cell and a row that is null.
    "list-d": lambda obj: [row.update(d=[row["d"]]) for row in obj["rows"] + obj["detail"]],
    "list-lyapunov": lambda obj: obj.update(lyapunov_bits=[obj["lyapunov_bits"]]),
    "text-in-list": _set("rows", 0, p_order=["0.1", 0.9]),
    "object-cell": _set("rows", 1, h_rate_q_bits={"value": 0.5}),
    "null-row": lambda obj: obj["rows"].__setitem__(1, None),
    # Keys that emit never writes.
    "unknown-top-key": lambda obj: obj.update(extra=5),
    "unknown-config-key": lambda obj: obj["config"].update(extra=5),
    "unknown-row-key": _set("rows", 0, extra=5),
    "unknown-detail-key": _set("detail", 3, extra=None),
    # A float cell written as a JSON integer, where emit writes 1.0.
    "integer-d": _set("rows", 1, d=1),
    "integer-detail-d": _set("detail", 3, d=1),
    # The unedited file in another layout.
    "re-indented": lambda obj: json.dumps(obj, indent=2),
    "re-spaced": lambda obj: json.dumps(obj),
    "reordered-config": lambda obj: emit_layout({**obj, "config": dict(
        reversed(obj["config"].items()))}),
    "crlf": lambda obj: emit_layout(obj).replace("\n", "\r\n"),
    "truncated": lambda obj: emit_layout(obj)[:-3],
    "trailing-newline": lambda obj: emit_layout(obj) + "\n",
}


def written_json(path, obj, edit=lambda obj: None) -> None:
    """Write at `path` the parsed JSON summary `obj` after `edit`, which
    edits it in place, and is then laid out by emit_layout, or returns the
    text to write."""
    text = edit(obj)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text if isinstance(text, str) else emit_layout(obj))


def test_emit_layout_writes_the_bytes_emit_writes(tmp_path):
    # The control for the edits below: the unedited summary, laid out by
    # emit_layout, is emit's file and loads.
    path = tmp_path / "out.json"
    emit(TINY, "json", str(path))
    text = path.read_text(encoding="utf-8")
    written_json(path, json.loads(text))
    assert path.read_text(encoding="utf-8") == text
    assert load_sweep_json(str(path)) == TINY


@pytest.mark.parametrize("edit", BROKEN_JSON)
def test_load_rejects_json_that_no_result_writes(tmp_path, edit):
    path = tmp_path / "out.json"
    emit(TINY, "json", str(path))
    written_json(path, json.loads(path.read_text(encoding="utf-8")), BROKEN_JSON[edit])
    with pytest.raises(ValueError, match=ROUND_TRIP):
        load_sweep_json(str(path))
    assert os.listdir(tmp_path) == ["out.json"]


def test_load_holds_no_written_copy_of_the_file(tmp_path):
    # The file is compared with emit's pieces as they are written, so on a
    # fine_grid-sized file load's traced peak exceeds that of parsing it by
    # at most 1.5 times its size; a whole written copy took more than 2.5.
    path = tmp_path / "out.json"
    emit(run_sweep(SweepConfig(n=10_000, grid=2000, detail_path="detail.csv")), "json", str(path))

    def peak(load):
        tracemalloc.start()
        try:
            load(str(path))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def parse(name):
        with open(name, encoding="utf-8") as fh:
            return json.loads(fh.read())

    size = path.stat().st_size
    assert size >= 4_000_000
    load_sweep_json(str(path))  # first-call allocations
    assert peak(load_sweep_json) - peak(parse) <= 1.5 * size


@pytest.mark.parametrize("inf, minus_inf", [("1e400", "-1e400"), ("Infinity", "-Infinity")])
def test_load_rejects_infinities_that_emit_does_not_spell(tmp_path, inf, minus_inf):
    # A number past the floats, or json's constant, reads as the infinity
    # that emit spells "inf" or "-inf".
    path = tmp_path / "out.json"
    emit(TINY, "json", str(path))
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace('"inf"', inf).replace('"-inf"', minus_inf), encoding="utf-8")
    with pytest.raises(ValueError, match=ROUND_TRIP):
        load_sweep_json(str(path))


@pytest.mark.parametrize("cells", [
    {"log_evidence": -1.5},  # a scalar per-order cell
    {"p_order": (0.1,)},
    {"k_selected": 3},
    {"h_expected_bits": 0.5},
    {"k_selected": 2.0},
    {"k_selected": True, **ORDER_1},
    {"error": "x"},
    {"k_selected": None},
])
def test_from_rows_rejects_rows_that_no_result_writes(cells):
    rows = (dataclasses.replace(TINY.rows[0], **cells), TINY.rows[1])
    with pytest.raises(ValueError, match=ROUND_TRIP):
        SweepResult.from_rows(TINY.config, TINY.lyapunov_bits, rows, TINY.detail)


@pytest.mark.parametrize("lyapunov_bits", [[0.5], (), "x", {}])
def test_from_rows_rejects_a_lyapunov_bits_that_is_not_one_float(lyapunov_bits):
    # The row round trip does not compare it, so the columns' builder checks it.
    with pytest.raises(ValueError, match=ROUND_TRIP):
        SweepResult.from_rows(TINY.config, lyapunov_bits, TINY.rows, TINY.detail)


@pytest.mark.parametrize("d", [math.nan, math.inf, -0.5, 1.5])
def test_from_rows_rejects_a_d_that_is_no_decision_point(d):
    # At nan and inf the JSON would not be strict and the CSV would not spell
    # a missing cell as empty.
    rows = (dataclasses.replace(TINY_BARE.rows[0], d=d), TINY_BARE.rows[1])
    with pytest.raises(ValueError, match=ROUND_TRIP):
        SweepResult.from_rows(TINY_BARE.config, TINY_BARE.lyapunov_bits, rows)


def test_non_finite_cells_are_written_alike_from_columns_and_rows(monkeypatch, tmp_path):
    import chaosinfer.sweep as sweep_mod

    real = sweep_mod.order_scores

    def skew(tables, prior):
        # Infinities, NaNs and -0.0 in some cells of the order-2 estimates.
        tables = list(tables)
        les, e = real(tables, prior)
        two = np.array(sorted(table.table.shape[-2] for table in tables)) == 2**2
        h_rate_q = np.where(two & (e.h_rate_q > 0.9), np.inf, e.h_rate_q)
        expected_info = np.where(two & (e.expected_info > 0.9), np.inf, e.expected_info)
        return les, EntropyEstimate(
            np.where(two & (e.expected_info < 0.3), -0.0, expected_info),
            np.where(two & (e.h_rate_q < 0.2), -np.inf, h_rate_q),
            np.where(two & (e.kl_correction > 0.0), np.nan, e.kl_correction))

    monkeypatch.setattr(sweep_mod, "order_scores", skew)
    cfg = SweepConfig(n=1200, transient=50, seed=3, grid=200, k_min=1, k_max=2,
                      detail_path="detail.csv")
    result = sweep_mod.run_sweep(cfg)
    files = {}
    for out_format in ("json", "csv"):
        files[out_format] = written(result, tmp_path, out_format, True)
        assert written(rebuilt(result), tmp_path, out_format, True) == files[out_format]
    summary, detail = files["json"][0], files["csv"][1]
    assert b'"h_rate_q_bits": "inf"' in summary and b'"kl_correction_bits": null' in summary
    assert b",inf,," in detail
    # emit -> load -> emit writes the same bytes.
    (tmp_path / "out.json").write_bytes(summary)
    loaded = load_sweep_json(str(tmp_path / "out.json"))
    assert loaded == result
    assert written(loaded, tmp_path, "json", True)[0] == summary
    # Each CSV cell of a float is the table's spelling of its repr, and
    # every odd kind of float turns up, in more than one chunk of rows.
    spelling = sweep_mod._SPELLING["csv"]
    with open(os.path.join(tmp_path, "detail.csv"), encoding="utf-8", newline="") as fh:
        cells = list(csv.reader(fh))[1:]
    seen = {}
    for at, (row, texts) in enumerate(zip(result.detail, cells)):
        for value, text in zip(dataclasses.astuple(row)[2:], texts[2:]):
            assert text == spelling.get(repr(value), repr(value)), (row, value, text)
            seen.setdefault(repr(value), set()).add(at // 2 // EMIT_CHUNK_ROWS)  # two orders
    assert all(len(seen[text]) >= 2 for text in ("nan", "inf", "-inf", "-0.0"))


def test_load_does_not_check_the_output_paths(tmp_path):
    # A summary may be read on another machine, where its output paths could
    # not be written: here, one under a file and one that is the summary's.
    path = tmp_path / "out.json"
    emit(TINY, "json", str(path))
    obj = json.loads(path.read_text(encoding="utf-8"))
    for out_path, detail_path in ((str(path / "x.csv"), "detail.csv"), ("a.csv", "a.csv")):
        obj["config"].update(out_path=out_path, detail_path=detail_path)
        written_json(path, obj)
        config = dataclasses.replace(TINY.config, out_path=out_path, detail_path=detail_path)
        with pytest.raises(ConfigError):
            config.validate()
        assert load_sweep_json(str(path)) == dataclasses.replace(TINY, config=config)


@pytest.mark.parametrize("cells", [
    {"sigma": np.float32(0.1)}, {"sigma": np.float16(0.1)}, {"alpha": np.float32(0.5)},
    {"alpha": np.float16(0.5)}, {"r": np.float16(3.5)},
])
def test_narrow_numpy_floats_validate_without_warnings(cells):
    # Under pytest's error::RuntimeWarning an overflow in a comparison fails.
    SweepConfig(**cells).validate()


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        SweepConfig(k_min=2, k_max=1).validate()
    with pytest.raises(ConfigError, match="k_min"):
        SweepConfig(k_min=-1, k_max=1).validate()
    with pytest.raises(ConfigError):
        SweepConfig(grid=1).validate()
    with pytest.raises(ConfigError):
        SweepConfig(n=8, k_max=8).validate()
    with pytest.raises(ConfigError):
        SweepConfig(sigma=-0.1).validate()
    with pytest.raises(ConfigError):
        SweepConfig(alpha=0.0).validate()
    with pytest.raises(ConfigError):
        SweepConfig(order_prior="flat").validate()
    with pytest.raises(ConfigError):
        SweepConfig(out_format="xml").validate()
    with pytest.raises(ConfigError):
        SweepConfig(n=100, k_max=26).validate()  # 2**27 entries per table
    with pytest.raises(ConfigError, match="transient"):
        SweepConfig(transient=-1).validate()
    SweepConfig(sigma=0.0).validate()


@pytest.mark.parametrize("cells", [
    {"k_max": 3.0}, {"n": 300.5}, {"grid": 5.0}, {"seed": 1.5}, {"sigma": "0.1"},
    {"alpha": "1"}, {"regenerate_per_d": "no"}, {"n": True}, {"alpha": False},
    {"out_path": 1}, {"detail_path": True},
])
def test_config_values_of_the_wrong_type_are_rejected_before_any_work(cells):
    with pytest.raises(ConfigError, match="is not of type"):
        run_sweep(SweepConfig(**{"n": 300, "grid": 5, "k_max": 3, **cells}))
    # An int passes for a float, and numpy scalars pass.
    SweepConfig(r=4, alpha=np.int64(1), n=np.int64(300), sigma=np.float64(0.1),
                regenerate_per_d=np.bool_(True)).validate()


def test_float32_r_regenerated_sweep_equals_per_d_oracle():
    # r is stored as a Python float, so each series steps in float64 alone
    # and in lockstep alike.
    cfg = SweepConfig(r=np.float32(3.7), n=300, transient=5, grid=40, k_max=2,
                      regenerate_per_d=True)
    assert type(cfg.r) is float
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run_sweep(cfg) == per_d_sweep(cfg)


def test_int8_k_max_over_the_limit_is_a_config_error():
    # Under pytest's error::RuntimeWarning an int8 k_max + 1 would overflow.
    with pytest.raises(ConfigError, match=r"needs 2\*\*128 table entries"):
        SweepConfig(k_max=np.int8(127)).validate()


def test_int8_series_lengths_do_not_wrap_around():
    # transient + n is 200, which int8 would wrap to -56.
    cfg = SweepConfig(n=np.int8(100), transient=np.int8(100), grid=5, k_max=2)
    cfg.validate()
    assert run_sweep(cfg) == run_sweep(SweepConfig(n=100, transient=100, grid=5, k_max=2))


def test_numpy_scalars_of_a_result_are_written_to_json(tmp_path):
    # A config field or a Lyapunov estimate given as a numpy scalar that the
    # JSON encoder does not take is written, and read back, as its value.
    cfg = SweepConfig(n=np.int64(300), transient=np.int16(5), grid=np.uint8(5), k_max=2,
                      alpha=np.float32(0.5), regenerate_per_d=np.bool_(True))
    plain = SweepConfig(n=300, transient=5, grid=5, k_max=2, alpha=0.5,
                        regenerate_per_d=True)
    assert run_sweep(cfg) == run_sweep(plain)
    result = SweepResult.from_rows(cfg, np.float32(0.1), run_sweep(plain).rows)
    emit(result, "json", str(tmp_path / "numpy.json"))
    emit(dataclasses.replace(result, config=plain, lyapunov_bits=float(np.float32(0.1))),
         "json", str(tmp_path / "plain.json"))
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    assert load_sweep_json(str(tmp_path / "numpy.json")) == result


def test_parse_config_defaults():
    cfg = parse_config([])
    assert cfg == SweepConfig()
    assert (cfg.r, cfg.sigma, cfg.n, cfg.transient) == (4.0, 1e-3, 10_000, 1_000)
    assert (cfg.grid, cfg.k_min, cfg.k_max) == (200, 1, 8)
    assert cfg.order_prior == "size-penalty"
    assert cfg.alpha == 1.0


def test_parse_config_flags_override_file(tmp_path):
    f = tmp_path / "sweep.cfg"
    f.write_text("r=3.9\nsigma=0.0\ngrid=5\nk-max=2\nout=file.csv\nformat=json\n# comment\n")
    cfg = parse_config(["--config", str(f), "--sigma", "0.001"])
    assert cfg.r == 3.9
    assert cfg.sigma == 0.001
    assert cfg.grid == 5
    assert cfg.k_max == 2
    assert cfg.out_path == "file.csv"
    assert cfg.out_format == "json"


def test_config_file_comments_need_a_line_start_or_whitespace(tmp_path):
    f = tmp_path / "sweep.cfg"
    f.write_text("# full-line comment\nout=dir/run#1.csv\nk-max=2  # two\n")
    cfg = parse_config(["--config", str(f)])
    assert cfg.out_path == "dir/run#1.csv"
    assert cfg.k_max == 2
    f.write_text("k_max=2#x\n")
    with pytest.raises(ConfigError, match="bad value for k_max"):
        parse_config(["--config", str(f)])


def test_parse_config_rejects_unknown_file_key(tmp_path):
    f = tmp_path / "sweep.cfg"
    f.write_text("bogus=1\n")
    with pytest.raises(ConfigError):
        parse_config(["--config", str(f)])


def test_parse_config_rejects_bad_file_value(capsys, tmp_path):
    f = tmp_path / "sweep.cfg"
    f.write_text("n=abc\n")
    with pytest.raises(ConfigError):
        parse_config(["--config", str(f)])
    f.write_text("grid=5\nk_max\n")
    with pytest.raises(ConfigError, match=":2: expected key=value"):
        parse_config(["--config", str(f)])
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config(["--config", str(tmp_path / "missing.cfg")])
    f.write_bytes(b"k_max=\xff\xfe\n")  # not UTF-8
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config(["--config", str(f)])
    assert main(["--config", str(f)]) == 1
    assert capsys.readouterr().err.startswith("config error: cannot read config file")


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    f = tmp_path / "sweep.cfg"
    f.write_bytes(b"\xef\xbb\xbfk_max=3\n")
    assert parse_config(["--config", str(f)]).k_max == 3


# field -> (documented flag, a valid value as text, or None for a switch)
SCHEMA_CASES = {
    "family": ("--family", "logistic"),  # the only family, so it cannot differ from the default
    "r": ("--r", "3.9"),
    "sigma": ("--sigma", "0.002"),
    "n": ("--n", "5000"),
    "transient": ("--transient", "10"),
    "seed": ("--seed", "7"),
    "grid": ("--grid", "17"),
    "k_min": ("--k-min", "2"),
    "k_max": ("--k-max", "5"),
    "order_prior": ("--order-prior", "uniform"),
    "alpha": ("--alpha", "0.5"),
    "regenerate_per_d": ("--regenerate-per-d", None),
    "out_format": ("--format", "json"),
    "out_path": ("--out", "elsewhere.csv"),
    "detail_path": ("--detail", "detail.csv"),
}


@pytest.mark.parametrize("field", dataclasses.fields(SweepConfig), ids=lambda f: f.name)
def test_every_field_is_set_alike_by_flag_and_by_both_file_keys(tmp_path, field):
    flag, text = SCHEMA_CASES[field.name]
    by_flag = parse_config([flag] if text is None else [flag, text])
    assert (by_flag != SweepConfig()) == (field.name != "family")
    path = tmp_path / "sweep.cfg"
    for key in (flag[2:], flag[2:].replace("-", "_"), field.name):
        path.write_text(f"{key}={'true' if text is None else text}\n")
        assert parse_config(["--config", str(path)]) == by_flag


@pytest.mark.parametrize("field", dataclasses.fields(SweepConfig), ids=lambda f: f.name)
def test_every_default_written_as_text_parses_to_a_value_of_its_field_type(field):
    # Flags and config-file values are parsed by the field's annotation, the
    # type _check_values checks, so each default written as command-line text
    # parses back to itself, a detail path to the text, and is accepted.
    value = _value_parser(field)(str(field.default))
    assert value == (str(field.default) if field.default is None else field.default)
    assert type(value) is (str if field.default is None else type(field.default))
    dataclasses.replace(SweepConfig(), **{field.name: value})._check_values()


def test_config_file_booleans(tmp_path):
    path = tmp_path / "sweep.cfg"
    for text, expected in (("yes", True), ("off", False)):
        path.write_text(f"regenerate_per_d={text}\n")
        assert parse_config(["--config", str(path)]).regenerate_per_d is expected
    path.write_text("regenerate-per-d=maybe\n")
    with pytest.raises(ConfigError):
        parse_config(["--config", str(path)])


def test_cli_end_to_end_and_determinism(tmp_path):
    args = ["--n", "1200", "--transient", "50", "--grid", "5", "--k-max", "3", "--seed", "4"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_json_output(tmp_path):
    # One run writes the summary, detail rows, config echo and λ as JSON, plus
    # the detail CSV, into a directory it creates.
    path, detail = tmp_path / "results" / "sweep.json", tmp_path / "results" / "detail.csv"
    code = main(["--n", "900", "--transient", "20", "--grid", "3", "--k-max", "2",
                 "--format", "json", "--out", str(path), "--detail", str(detail)])
    assert code == 0
    loaded = load_sweep_json(str(path))
    assert len(loaded.rows) == 3
    assert loaded.config.n == 900 and loaded.config.out_format == "json"
    assert math.isfinite(loaded.lyapunov_bits)
    assert len(loaded.detail) == 3 * 2
    assert_csv_holds(detail, DETAIL_HEADER, loaded.detail)


def test_cli_json_and_detail_run_builds_no_detail_row(monkeypatch, tmp_path):
    # The writers and the printed counts read the scored columns: no
    # SweepRow or DetailRow is built until something reads SweepResult.rows
    # or .detail.
    built = []
    for cls in (SweepRow, DetailRow):
        def counted(self, *args, real=cls.__init__, **kwargs):
            built.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    out, detail = tmp_path / "out.json", tmp_path / "detail.csv"
    argv = ["--n", "900", "--transient", "20", "--grid", "300", "--k-max", "3",
            "--format", "json", "--out", str(out), "--detail", str(detail)]
    assert main(argv) == 0
    assert built == []
    loaded = load_sweep_json(str(out))
    assert built == []  # a load checks the file's cells and builds no row
    assert len(loaded.detail) == len(built) == 300 * 3
    assert len(loaded.detail) + len(loaded.rows) == len(built) == 300 * 4  # each built once


def test_column_writer_streams_in_bounded_memory(tmp_path):
    # The JSON and the detail CSV are written in one pass from the result's
    # columns, and the JSON's detail objects wait in a temporary file: peak
    # traced memory stays under half the JSON's size.
    result = run_sweep(SweepConfig(n=300, transient=10, grid=1024, detail_path="detail.csv"))
    path = tmp_path / "out.json"
    tracemalloc.start()
    try:
        emit(result, "json", str(path), str(tmp_path / "detail.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 2_000_000
    assert peak <= 0.5 * size, (peak, size)


def test_cli_exit_code_on_config_errors(capsys, tmp_path):
    assert main(["--k-max", "0", "--k-min", "1"]) == 1
    assert main(["--no-such-flag"]) == 1
    assert main(["--n", "abc"]) == 1
    assert main(["--sigma", "inf"]) == 1
    assert main(["--alpha", "inf"]) == 1
    assert main(["--seed", "-1"]) == 1
    assert main(["--k-max", "27", "--n", "100", "--grid", "3"]) == 1
    # 2 ** 20001 has more digits than an int may print by default.
    assert main(["--k-max", "20000", "--n", "100", "--grid", "3"]) == 1
    err = capsys.readouterr().err
    assert "config error: k_max=20000" in err and "largest accepted k_max is 25" in err
    assert main(["--sigma", "1e308", "--n", "100", "--grid", "3"]) == 1
    # Outside [MIN_ALPHA, MAX_ALPHA]; at 1e306 and 1e-320 gammaln overflowed
    # to inf and every evidence became NaN.
    for alpha in (1e306, 1e-320, math.nextafter(MAX_ALPHA, math.inf),
                  math.nextafter(MIN_ALPHA, 0.0)):
        assert main([f"--alpha={alpha!r}", "--n", "100", "--grid", "3"]) == 1
    # An output path that is empty, ends in a separator or names a directory
    # is rejected before the sweep runs, so nothing is written.
    out = str(tmp_path / "out.csv")
    for paths in (["--out="], [f"--out={tmp_path}"], [f"--out={tmp_path / 'new'}{os.sep}"],
                  ["--out", out, "--detail="], ["--out", out, f"--detail={tmp_path}"],
                  # The detail file would replace the summary.
                  ["--out", out, "--detail", out],
                  ["--out", out, f"--detail={tmp_path}{os.sep}.{os.sep}out.csv"],
                  ["--out", out, f"--detail={tmp_path / 'new' / '..' / 'out.csv'}"]):
        assert main(["--n", "100", "--grid", "3", *paths]) == 1
    assert list(tmp_path.iterdir()) == []
    assert "config error" in capsys.readouterr().err
    # A path under a regular file cannot be created; this needs a directory
    # that holds the file.
    with tempfile.TemporaryDirectory() as tmp:
        afile = os.path.join(tmp, "afile")
        with open(afile, "w", encoding="utf-8") as fh:
            fh.write("a file, not a directory")
        for paths in (["--out", os.path.join(afile, "x.csv")],
                      ["--out", os.path.join(afile, "sub", "x.csv")],
                      ["--out", out, "--detail", os.path.join(afile, "x.csv")]):
            assert main(["--n", "100", "--grid", "3", *paths]) == 1
        assert os.listdir(tmp) == ["afile"]
        with open(afile, encoding="utf-8") as fh:
            assert fh.read() == "a file, not a directory"
    assert list(tmp_path.iterdir()) == []
    assert "is not a directory" in capsys.readouterr().err


def test_summary_and_detail_may_share_a_device(capsys):
    # A device is written to in place, so the detail file replaces nothing.
    assert main(["--n", "300", "--grid", "3", "--k-max", "2",
                 "--out", os.devnull, "--detail", os.devnull]) == 0
    assert capsys.readouterr().out.startswith(
        f"wrote 3 rows to {os.devnull}\nwrote 6 detail rows to {os.devnull}\n")


@pytest.mark.parametrize("flag", ["--out", "--detail"])
def test_a_symlinked_output_path_is_checked_at_its_target(tmp_path, flag):
    # The link's target is what is checked and written: a link into a
    # missing directory writes through it, and one under a regular file or
    # in a loop is rejected before the sweep runs.
    afile = tmp_path / "afile"
    afile.write_text("a file")

    def run(link):
        paths = ([flag, str(link)] if flag == "--out" else
                 ["--out", str(tmp_path / "out.csv"), flag, str(link)])
        return main(["--n", "100", "--grid", "3", *paths])

    links = {"under-file": afile / "x.csv", "loop": tmp_path / "loop"}
    for name, target in links.items():
        (tmp_path / name).symlink_to(target)
        assert run(tmp_path / name) == 1, name
    assert sorted(os.listdir(tmp_path)) == ["afile", "loop", "under-file"]
    link = tmp_path / "into-new"
    link.symlink_to(tmp_path / "new" / "sub" / "target.csv")
    assert run(link) == 0
    assert link.is_symlink() and (tmp_path / "new" / "sub" / "target.csv").is_file()
    assert os.listdir(tmp_path / "new" / "sub") == ["target.csv"]


@pytest.mark.parametrize("alpha", [MIN_ALPHA, MAX_ALPHA], ids=["min", "max"])
def test_extreme_accepted_alpha_gives_finite_rows(alpha):
    # The detail rows hold every order's estimates; nothing is written.
    config = SweepConfig(n=2000, transient=50, grid=5, k_min=0, k_max=3, alpha=alpha,
                         detail_path="unused.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", ".* the top of the range", RuntimeWarning)
        result = run_sweep(config)
    for row in result.rows:
        assert row.error is None
        assert all(map(math.isfinite, (row.h_expected_bits, *row.log_evidence, *row.p_order)))
    assert all(math.isfinite(dr.h_expected_bits) for dr in result.detail)


@pytest.mark.parametrize("alpha", [1e8, 1e16, MAX_ALPHA])
def test_sweep_log_evidence_is_accurate_at_large_alpha(alpha):
    # Taken as differences of two gammaln values near alpha ln alpha, these
    # read -1408.0 at 1e16 against a true -1386.3, and 0.0 at MAX_ALPHA.
    config = SweepConfig(n=2000, transient=50, grid=5, k_min=0, k_max=3, alpha=alpha)
    result = run_sweep(config)
    series = generate_trajectory(MapSpec(config.family, config.r), NoiseSpec(config.sigma),
                                 config.n, config.transient, config.seed)
    for row, part in zip(result.rows, decision_grid(config.grid)):
        symbols = symbolize(series, part).symbols
        for k, got in zip(range(config.k_min, config.k_max + 1), row.log_evidence):
            want = sequential_log_evidence(symbols, k, alpha)
            assert math.isclose(got, want, rel_tol=EVIDENCE_REL_TOL), (row.d, k, got, want)


def test_scoring_tables_stay_within_their_bound():
    # Counts up to 2**18 lie far past the table cap, and a second alpha
    # replaces the first: the cache holds one alpha's cell and context
    # tables, 3 rows of at most 2**14 floats each.
    for alpha in (1.0, 2.5):
        run_sweep(SweepConfig(n=1 << 18, transient=0, grid=50, k_min=1, k_max=8, alpha=alpha))
        assert entropy._term_tables.cache_info().currsize == 1
        hits = entropy._term_tables.cache_info().hits
        held = sum(table.nbytes for table in entropy._term_tables(alpha))
        assert entropy._term_tables.cache_info().hits == hits + 1  # the cached alpha is alpha
        assert held <= 2 * 3 * (1 << 14) * 8


def test_import_and_config_parsing_build_no_scoring_table():
    code = ("import chaosinfer, chaosinfer.cli, chaosinfer.entropy as entropy\n"
            "chaosinfer.cli.parse_config(['--n', '100', '--grid', '3'])\n"
            "print(entropy._term_tables.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(chaosinfer.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout == "0\n"


# Any float, including subnormal, huge, infinite and NaN ones, with extra
# weight on non-negative ones and on the edges of the accepted alpha range.
ANY_FLOAT = st.one_of(
    st.sampled_from([MIN_ALPHA, MAX_ALPHA, 1e306, 1e-320, 5e-324]),
    st.floats(min_value=0.0),
    st.floats(),
)


def written_rows(out, out_format):
    """(error, estimates) of each row of a written summary; a blank CSV cell
    reads as None, and as NaN where it holds an estimate, as JSON's null does."""
    if out_format == "json":
        rows = load_sweep_json(out).rows
        return [(row.error, [row.h_expected_bits, *row.log_evidence, *row.p_order])
                for row in rows]
    with open(out, encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    estimates = [i for i, name in enumerate(header)
                 if name == "h_expected_bits" or name.startswith(("log_evidence_k", "p_order_k"))]
    return [(row[header.index("error")] or None, [float(row[i] or "nan") for i in estimates])
            for row in rows]


# More examples than the other properties: most drawn configs are rejected.
@settings(deadline=None, max_examples=300)
@example(n=400, grid=5, k_min=1, k_max=3, alpha=1e306, sigma=1e-3, transient=10, r=4.0,
         seed=0, order_prior="size-penalty", regenerate=False, out_format="csv", detail=None)
@example(n=400, grid=5, k_min=1, k_max=3, alpha=1e-320, sigma=1e-3, transient=10, r=4.0,
         seed=0, order_prior="size-penalty", regenerate=False, out_format="csv", detail=None)
@example(n=400, grid=5, k_min=1, k_max=3, alpha=1.0, sigma=0.7, transient=10, r=3.7,
         seed=2**64 + 1, order_prior=ORDER_PRIORS[-1], regenerate=True, out_format="json",
         detail="detail.csv")
# The corners of the accepted space; alpha 99.9 and 100 lie on either side
# of the switch to Stirling's series in the log evidence.
@example(n=400, grid=5, k_min=0, k_max=3, alpha=MIN_ALPHA, sigma=MAX_SIGMA, transient=10,
         r=1e-300, seed=0, order_prior="size-penalty", regenerate=False, out_format="csv",
         detail="detail.csv")
@example(n=400, grid=5, k_min=0, k_max=0, alpha=MAX_ALPHA, sigma=1e-3, transient=10, r=4.0,
         seed=0, order_prior="size-penalty", regenerate=True, out_format="json", detail=None)
@example(n=400, grid=6, k_min=0, k_max=3, alpha=99.9, sigma=1e-3, transient=10, r=4.0,
         seed=0, order_prior="size-penalty", regenerate=False, out_format="csv",
         detail="detail.csv")
@example(n=400, grid=6, k_min=0, k_max=3, alpha=100.0, sigma=1e-3, transient=10, r=4.0,
         seed=0, order_prior="size-penalty", regenerate=True, out_format="json",
         detail="detail.csv")
@given(
    n=st.integers(0, 400),
    grid=st.integers(0, 6),
    k_min=st.integers(0, 3),
    k_max=st.integers(0, 3),
    alpha=ANY_FLOAT,
    sigma=ANY_FLOAT,
    transient=st.integers(0, 50),
    r=st.one_of(st.sampled_from([4.0, 3.7]), st.floats(0.0, 4.0, exclude_min=True), st.floats()),
    seed=st.one_of(st.integers(0, 2**32), st.integers(), st.integers(2**64 - 2, 2**80)),
    order_prior=st.sampled_from(ORDER_PRIORS),
    regenerate=st.booleans(),
    out_format=st.sampled_from(["csv", "json"]),
    detail=st.sampled_from([None, "detail.csv", "out"]),
)
def test_cli_rejects_or_writes_well_formed_rows(n, grid, k_min, k_max, alpha, sigma, transient,
                                                r, seed, order_prior, regenerate, out_format,
                                                detail):
    # Exit 1 writes nothing; an accepted config exits 0 and writes every
    # requested file, under the suite's warning filters, so a RuntimeWarning
    # fails the run.  A written summary has one row per decision point, each
    # without an error and with every estimate finite.  A detail path of
    # "out" names the summary file itself.
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argv = ["--n", str(n), "--grid", str(grid), "--k-min", str(k_min),
                "--k-max", str(k_max), f"--alpha={alpha!r}", f"--sigma={sigma!r}",
                "--transient", str(transient), f"--r={r!r}", f"--seed={seed}",
                "--order-prior", order_prior, "--format", out_format, "--out", out]
        argv += ["--regenerate-per-d"] if regenerate else []
        argv += ["--detail", os.path.join(tmp, detail)] if detail else []
        code = main(argv)
        assert code in (0, 1)
        if code == 1:
            assert os.listdir(tmp) == []
            return
        assert detail is None or os.path.exists(os.path.join(tmp, detail))
        rows = written_rows(out, out_format)
        if out_format == "json":
            assert load_sweep_json(out).config == parse_config(argv)
        if detail is not None:
            with open(os.path.join(tmp, detail), encoding="utf-8", newline="") as fh:
                header, *detail_rows = list(csv.reader(fh))
            assert header == DETAIL_HEADER
            assert len(detail_rows) == grid * (k_max - k_min + 1)
    assert len(rows) == grid
    assert all(error is None for error, _ in rows)
    assert all(math.isfinite(value) for _, estimates in rows for value in estimates)


def test_a_scoring_failure_stops_the_run_and_keeps_earlier_files(monkeypatch, tmp_path, capsys):
    # k_max 8 scores 128 points a slice, so grid 300 is three slices; the
    # last, of 44 points, raises.  The run exits 2, names that slice's first
    # and last d, and replaces neither file of the run before.
    import chaosinfer.sweep as sweep_mod

    real = sweep_mod.order_scores

    def sabotage(tables, prior):
        tables = list(tables)
        if any(table.table.shape == (44, 2**8, 2) for table in tables):
            raise ValueError("forced failure")
        return real(tables, prior)

    out, detail = tmp_path / "out.csv", tmp_path / "detail.csv"
    argv = ["--n", "900", "--transient", "20", "--grid", "300", "--k-max", "8",
            "--out", str(out), "--detail", str(detail)]
    assert main(argv) == 0
    written = out.read_bytes(), detail.read_bytes()
    capsys.readouterr()
    monkeypatch.setattr(sweep_mod, "order_scores", sabotage)
    assert main(argv) == 2
    ds = decision_points(300).tolist()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "forced failure" in err
    assert f"d = {ds[256]!r} to {ds[299]!r}" in err
    assert (out.read_bytes(), detail.read_bytes()) == written
    assert sorted(os.listdir(tmp_path)) == ["detail.csv", "out.csv"]
    with pytest.raises(RuntimeError, match="d = ") as info:
        run_sweep(parse_config(argv))
    assert isinstance(info.value.__cause__, ValueError)


def test_a_posterior_failure_names_its_scoring_slice(monkeypatch, tmp_path, capsys):
    # k_max 8 counts 256 points a block and scores 128 a slice, so grid 600
    # is five slices, and the posterior over orders is taken once for each.
    # When the second raises, the run exits 2, names that slice's first and
    # last d, and replaces no file.
    import chaosinfer.sweep as sweep_mod

    real, slices, failing = sweep_mod.posterior_over_orders, [], []

    def counted(log_evidences, log_priors):
        slices.append(len(log_evidences))
        if len(slices) in failing:
            raise ValueError("forced failure")
        return real(log_evidences, log_priors)

    monkeypatch.setattr(sweep_mod, "posterior_over_orders", counted)
    out = tmp_path / "out.csv"
    argv = ["--n", "900", "--transient", "20", "--grid", "600", "--k-max", "8", "--out", str(out)]
    assert main(argv) == 0
    assert slices == [128, 128, 128, 128, 88]
    written = out.read_bytes()
    capsys.readouterr()
    slices.clear()
    failing.append(2)
    assert main(argv) == 2
    assert slices == [128, 128]
    ds = decision_points(600).tolist()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "forced failure" in err
    assert f"d = {ds[128]!r} to {ds[255]!r}" in err
    assert out.read_bytes() == written and os.listdir(tmp_path) == ["out.csv"]


def test_cli_exit_code_on_runtime_error(tmp_path):
    # A file name longer than the file system allows passes validation and
    # fails only when the summary is written.
    out = tmp_path / ("x" * 300 + ".csv")
    assert main(["--n", "900", "--transient", "20", "--grid", "3", "--k-max", "2",
                 "--out", str(out)]) == 2


def test_symmetry_of_information_curve(default_sweep_result):
    rows = default_sweep_result.rows
    hs = np.array([row.h_expected_bits for row in rows])
    assert np.all(np.abs(hs - hs[::-1]) <= 0.1)


def test_default_sweep_posteriors_normalized(default_sweep_result):
    for row in default_sweep_result.rows:
        assert abs(sum(row.p_order) - 1.0) <= 1e-12
