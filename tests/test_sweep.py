import csv
import dataclasses
import json
import math
import os
import stat
import tempfile
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import per_d_sweep
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaosinfer.cli import main, parse_config
from chaosinfer.sweep import (
    GRID_BLOCK_ENTRIES,
    MAX_ALPHA,
    MIN_ALPHA,
    ConfigError,
    DetailRow,
    SweepConfig,
    SweepResult,
    SweepRow,
    csv_header,
    emit,
    emit_detail,
    load_sweep_json,
    run_sweep,
)

SMALL = SweepConfig(n=1500, transient=100, seed=5, grid=11, k_min=1, k_max=3)
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
    # 131 points at k_max=8 span a full grid block and a partial one.
    "partial_block": SweepConfig(n=600, transient=30, seed=4, grid=131, k_min=1, k_max=8),
    "per_d_partial_block": SweepConfig(n=600, transient=30, seed=6, grid=131, k_min=0,
                                       k_max=8, regenerate_per_d=True),
}


@pytest.mark.parametrize("detail", [False, True], ids=["summary", "detail"])
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_run_sweep_equals_per_d_oracle(case, detail):
    cfg = ORACLE_CASES[case]
    if detail:
        cfg = dataclasses.replace(cfg, detail_path="detail.csv")
    assert run_sweep(cfg) == per_d_sweep(cfg)


@st.composite
def accepted_configs(draw):
    """A SweepConfig that validate() accepts, with a short series.  At k_max
    9 a grid block is 64 points, and the grid is one point short of a block,
    one full block or one or two points over it.  The last point, d = 1,
    gives every series the same symbols, so only two points over put a
    series-dependent point in the second block."""
    k_max = draw(st.sampled_from(range(10)))
    block = GRID_BLOCK_ENTRIES >> (k_max + 1)
    if block <= 64:
        grid = block + draw(st.sampled_from([-1, 0, 1, 2]))
    else:
        grid = draw(st.integers(2, 7))
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
# Regenerated series past the first block, which the draws may not reach.
@example(cfg=SweepConfig(n=300, transient=0, seed=1, grid=66, k_min=0, k_max=9, sigma=0.3,
                         alpha=0.3, regenerate_per_d=True, detail_path="detail.csv"))
@given(cfg=accepted_configs())
def test_run_sweep_equals_per_d_oracle_on_accepted_configs(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run_sweep(cfg) == per_d_sweep(cfg)


def test_partial_block_case_spans_two_blocks():
    cfg = ORACLE_CASES["partial_block"]
    block = GRID_BLOCK_ENTRIES >> (cfg.k_max + 1)
    assert block < cfg.grid < 2 * block


@pytest.mark.parametrize("k_max", [0, 4])
def test_regenerate_per_d_counts_each_series_once(monkeypatch, k_max):
    import chaosinfer.sweep as sweep_mod

    orders_counted = []
    real = sweep_mod.transition_counts

    def counted(seq, order):
        orders_counted.append(order)
        return real(seq, order)

    monkeypatch.setattr(sweep_mod, "transition_counts", counted)
    cfg = SweepConfig(n=400, grid=7, k_min=0, k_max=k_max, regenerate_per_d=True)
    sweep_mod.run_sweep(cfg)
    assert orders_counted == [k_max] * cfg.grid


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
    assert lines[0].split(",") == csv_header(SMALL)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert int(first[1]) in range(1, 4)


def test_emit_csv_floats_round_trip(tmp_path, small_result):
    path = tmp_path / "out.csv"
    emit(small_result, "csv", str(path))
    header = ["d", "k_selected", "h_expected_bits", "h_rate_q_bits", "kl_correction_bits",
              "log_evidence_k1", "log_evidence_k2", "log_evidence_k3",
              "p_order_k1", "p_order_k2", "p_order_k3", "error"]
    assert csv_header(SMALL) == header
    assert_csv_holds(path, header, small_result.rows)


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
    nan = math.nan
    detail = list(result.detail)
    detail[0] = dataclasses.replace(detail[0], h_expected_bits=nan, log_evidence=-math.inf)
    detail[5] = dataclasses.replace(detail[5], p_order=nan, h_rate_q_bits=math.inf)
    rows = list(result.rows)
    rows[1] = dataclasses.replace(rows[1], kl_correction_bits=nan, p_order=(nan, math.inf, 0.5))
    result = dataclasses.replace(result, rows=tuple(rows), detail=tuple(detail))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    emit(result, "json", str(first))
    text = first.read_text()
    json.loads(text, parse_constant=_no_constants)
    # four NaNs, plus the error of each row
    assert text.count("null") == 4 + len(rows)
    assert text.count('"inf"') == 2 and text.count('"-inf"') == 1
    loaded = load_sweep_json(str(first))
    assert math.isnan(loaded.detail[0].h_expected_bits)
    assert loaded.detail[0].log_evidence == -math.inf
    assert loaded.rows[1].p_order[1] == math.inf
    emit(loaded, "json", str(second))
    assert second.read_bytes() == first.read_bytes()
    emit_detail(result, str(tmp_path / "detail.csv"))
    assert_csv_holds(tmp_path / "detail.csv", DETAIL_HEADER, result.detail)


# A hand-built result with every kind of cell: NaN (math.nan itself, so that
# the reloaded rows compare equal), infinities, a failed row with no order and
# an error text holding a quote, a newline, a brace, a comma and a non-ASCII
# character.
TINY = SweepResult(
    config=SweepConfig(n=100, grid=2, k_min=1, k_max=2, alpha=0.5, out_format="json",
                       out_path="out.json", detail_path="detail.csv"),
    lyapunov_bits=0.9791235781734471,
    rows=(
        SweepRow(0.0, 2, 0.25, 0.125, math.inf, (-1.5, -math.inf), (0.1, 0.9)),
        SweepRow(1.0, None, math.nan, math.nan, math.nan, (math.nan, math.nan),
                 (math.nan, math.nan), 'bad "x", {"d": 1},\n} é'),
    ),
    detail=(
        DetailRow(0.0, 1, 0.5, 0.375, 1e-05, -1.5, 0.1),
        DetailRow(0.0, 2, math.nan, -math.inf, math.inf, -math.inf, 0.9),
    ),
)
# No detail rows and no error text; the failed row's blank cells are None and NaN.
TINY_BARE = dataclasses.replace(
    TINY, lyapunov_bits=-math.inf, detail=(),
    rows=(TINY.rows[0], dataclasses.replace(TINY.rows[1], error=None)),
)
TINY_CONFIG_JSON = (
    '{"family": "logistic", "r": 4.0, "sigma": 0.001, "n": 100, "transient": 1000, '
    '"seed": 0, "grid": 2, "k_min": 1, "k_max": 2, "order_prior": "size-penalty", '
    '"alpha": 0.5, "regenerate_per_d": false, "out_format": "json", "out_path": "out.json", '
    '"detail_path": "detail.csv"}'
)
TINY_ROW_JSON = (
    '{"d": 0.0, "k_selected": 2, "h_expected_bits": 0.25, "h_rate_q_bits": 0.125, '
    '"kl_correction_bits": "inf", "log_evidence": [-1.5, "-inf"], "p_order": [0.1, 0.9], '
    '"error": null}'
)
TINY_DETAIL_JSON = (
    '{"d": 0.0, "k": 1, "h_expected_bits": 0.5, "h_rate_q_bits": 0.375, '
    '"kl_correction_bits": 1e-05, "log_evidence": -1.5, "p_order": 0.1}'
)
# ensure_ascii escapes the non-ASCII character.
TINY_ERROR_JSON = r'"bad \"x\", {\"d\": 1},\n} \u00e9"'


def failed_row_json(error):
    return ('{"d": 1.0, "k_selected": null, "h_expected_bits": null, "h_rate_q_bits": null, '
            '"kl_correction_bits": null, "log_evidence": [null, null], "p_order": [null, null], '
            f'"error": {error}}}')


@pytest.mark.parametrize("result, expected", [
    (TINY,
     '{\n'
     f'  "config": {TINY_CONFIG_JSON},\n'
     '  "lyapunov_bits": 0.9791235781734471,\n'
     '  "rows": [\n'
     f'    {TINY_ROW_JSON},\n'
     f'    {failed_row_json(TINY_ERROR_JSON)}\n'
     '  ],\n'
     '  "detail": [\n'
     f'    {TINY_DETAIL_JSON},\n'
     '    {"d": 0.0, "k": 2, "h_expected_bits": null, "h_rate_q_bits": "-inf", '
     '"kl_correction_bits": "inf", "log_evidence": "-inf", "p_order": 0.9}\n'
     '  ]\n'
     '}\n'),
    (TINY_BARE,
     '{\n'
     f'  "config": {TINY_CONFIG_JSON},\n'
     '  "lyapunov_bits": "-inf",\n'
     '  "rows": [\n'
     f'    {TINY_ROW_JSON},\n'
     f'    {failed_row_json("null")}\n'
     '  ],\n'
     '  "detail": []\n'
     '}\n'),
    # No rows, and only finite floats, which the encoder takes as they are.
    (dataclasses.replace(TINY, rows=(), detail=TINY.detail[:1]),
     '{\n'
     f'  "config": {TINY_CONFIG_JSON},\n'
     '  "lyapunov_bits": 0.9791235781734471,\n'
     '  "rows": [],\n'
     '  "detail": [\n'
     f'    {TINY_DETAIL_JSON}\n'
     '  ]\n'
     '}\n'),
], ids=["detail", "no-detail", "finite"])
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
     '1.0,,,,,,,,,"bad ""x"", {""d"": 1},\n} é"\n'),
    ("csv", TINY_BARE,
     "d,k_selected,h_expected_bits,h_rate_q_bits,kl_correction_bits,log_evidence_k1,"
     "log_evidence_k2,p_order_k1,p_order_k2,error\n"
     "0.0,2,0.25,0.125,inf,-1.5,-inf,0.1,0.9,\n"
     "1.0,,,,,,,,,\n"),
    ("detail", TINY,
     "d,k,h_expected_bits,h_rate_q_bits,kl_correction_bits,log_evidence,p_order\n"
     "0.0,1,0.5,0.375,1e-05,-1.5,0.1\n"
     "0.0,2,,-inf,inf,-inf,0.9\n"),
], ids=["summary", "summary-no-text", "detail"])
def test_csv_bytes_are_frozen(tmp_path, write, result, expected):
    # Blank cells for None and NaN, inf and -inf, repr floats, csv quoting of text.
    path = tmp_path / "out.csv"
    WRITES[write](result, str(path))
    assert path.read_bytes() == expected.encode("utf-8")


def test_emit_streams_rows_in_bounded_memory(tmp_path):
    # Neither writer holds the whole file: peak traced memory stays under half its size.
    base = run_sweep(dataclasses.replace(SMALL, detail_path="detail.csv"))
    result = dataclasses.replace(base, detail=base.detail * 300)
    for write, name in (("json", "out.json"), ("detail", "detail.csv")):
        path = tmp_path / name
        tracemalloc.start()
        try:
            WRITES[write](result, str(path))
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
    "detail": emit_detail,
}


class Unwritable:
    """A cell value that neither csv nor json can write."""

    def __str__(self):
        raise RuntimeError("failed part way")

    __repr__ = __str__


@pytest.mark.parametrize("write", WRITES)
def test_failed_write_leaves_the_previous_file(tmp_path, write):
    result = run_sweep(dataclasses.replace(SMALL, detail_path="detail.csv"))
    rows, detail = list(result.rows), list(result.detail)
    rows[5] = dataclasses.replace(rows[5], error=Unwritable())
    detail[5] = dataclasses.replace(detail[5], k=Unwritable())
    result = dataclasses.replace(result, rows=tuple(rows), detail=tuple(detail))
    path = tmp_path / "out"
    path.write_text("previous\n")
    with pytest.raises((RuntimeError, TypeError)):
        WRITES[write](result, str(path))
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


def test_emit_detail_rows(tmp_path):
    cfg = SweepConfig(n=900, transient=50, seed=2, grid=4, k_min=1, k_max=3,
                      detail_path=str(tmp_path / "detail.csv"))
    result = run_sweep(cfg)
    assert len(result.detail) == 4 * 3
    emit_detail(result, cfg.detail_path)
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


def test_failed_rows_are_marked_without_aborting(monkeypatch, tmp_path):
    import chaosinfer.sweep as sweep_mod

    real = sweep_mod.expected_info

    def sabotage(counts, prior):
        # Degenerate endpoint streams leave a context unvisited; fail there.
        if counts.context_totals.min() == 0:
            raise RuntimeError("forced failure")
        return real(counts, prior)

    cfg = SweepConfig(n=1200, transient=50, seed=3, grid=5, k_min=1, k_max=2)
    monkeypatch.setattr(sweep_mod, "expected_info", sabotage)
    result = sweep_mod.run_sweep(cfg)
    assert len(result.rows) == 5
    assert result.rows[0].error == "forced failure"
    assert result.rows[-1].error == "forced failure"
    assert result.rows[0].k_selected is None
    interior = result.rows[1:-1]
    assert all(row.error is None for row in interior)
    assert all(np.isfinite(row.h_expected_bits) for row in interior)
    path = tmp_path / "failed.csv"
    emit(result, "csv", str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 6
    cells = lines[1].split(",")
    assert cells[1] == ""  # k_selected blank on failure
    assert cells[-1] == "forced failure"
    assert_csv_holds(path, csv_header(cfg), result.rows)
    emit(result, "json", str(tmp_path / "failed.json"))
    loaded = load_sweep_json(str(tmp_path / "failed.json"))
    assert loaded.rows[1:-1] == result.rows[1:-1]
    assert loaded.rows[0].error == "forced failure" and loaded.rows[0].k_selected is None
    assert math.isnan(loaded.rows[0].h_expected_bits)
    assert all(math.isnan(v) for v in loaded.rows[0].log_evidence + loaded.rows[0].p_order)


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


def test_parse_config_rejects_bad_file_value(tmp_path):
    f = tmp_path / "sweep.cfg"
    f.write_text("n=abc\n")
    with pytest.raises(ConfigError):
        parse_config(["--config", str(f)])
    f.write_text("grid=5\nk_max\n")
    with pytest.raises(ConfigError, match=":2: expected key=value"):
        parse_config(["--config", str(f)])
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config(["--config", str(tmp_path / "missing.cfg")])


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


def test_cli_exit_code_on_config_errors(capsys, tmp_path):
    assert main(["--k-max", "0", "--k-min", "1"]) == 1
    assert main(["--no-such-flag"]) == 1
    assert main(["--n", "abc"]) == 1
    assert main(["--sigma", "inf"]) == 1
    assert main(["--alpha", "inf"]) == 1
    assert main(["--seed", "-1"]) == 1
    assert main(["--k-max", "27", "--n", "100", "--grid", "3"]) == 1
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


@pytest.mark.parametrize("alpha", [MIN_ALPHA, MAX_ALPHA], ids=["min", "max"])
def test_extreme_accepted_alpha_gives_finite_rows(alpha):
    # A detail path makes run_sweep estimate every order; nothing is written.
    config = SweepConfig(n=2000, transient=50, grid=5, k_min=0, k_max=3, alpha=alpha,
                         detail_path="unused.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = run_sweep(config)
    for row in result.rows:
        assert row.error is None
        assert all(map(math.isfinite, (row.h_expected_bits, *row.log_evidence, *row.p_order)))
    assert all(math.isfinite(dr.h_expected_bits) for dr in result.detail)


# Any float, including subnormal, huge, infinite and NaN ones, with extra
# weight on non-negative ones and on the edges of the accepted alpha range.
ANY_FLOAT = st.one_of(
    st.sampled_from([MIN_ALPHA, MAX_ALPHA, 1e306, 1e-320, 5e-324]),
    st.floats(min_value=0.0),
    st.floats(),
)


def written_rows(out, out_format):
    """(error, estimates) of each row of a written summary; a NaN estimate
    reads as None, as a blank CSV cell does."""
    if out_format == "json":
        rows = load_sweep_json(out).rows
        return [(row.error, [None if math.isnan(v) else v
                             for v in (row.h_expected_bits, *row.log_evidence, *row.p_order)])
                for row in rows]
    with open(out, encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    estimates = [i for i, name in enumerate(header)
                 if name == "h_expected_bits" or name.startswith(("log_evidence_k", "p_order_k"))]
    return [(row[header.index("error")] or None, [row[i] or None for i in estimates])
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
    # Exit 1 writes nothing; exit 0 writes every requested file and has a row
    # without an error; exit 2 is a runtime failure.  A written summary has
    # one row per decision point, and a row without an error has every
    # estimate.  A detail path of "out" names the summary file itself.
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = os.path.join(tmp, "out")
        argv = ["--n", str(n), "--grid", str(grid), "--k-min", str(k_min),
                "--k-max", str(k_max), f"--alpha={alpha!r}", f"--sigma={sigma!r}",
                "--transient", str(transient), f"--r={r!r}", f"--seed={seed}",
                "--order-prior", order_prior, "--format", out_format, "--out", out]
        argv += ["--regenerate-per-d"] if regenerate else []
        argv += ["--detail", os.path.join(tmp, detail)] if detail else []
        code = main(argv)
        assert code in (0, 1, 2)
        written = os.path.exists(out)
        if code == 0:
            assert written
            assert detail is None or os.path.exists(os.path.join(tmp, detail))
        if code == 1:
            assert os.listdir(tmp) == []
        if not written:
            return
        rows = written_rows(out, out_format)
        if out_format == "json":
            assert load_sweep_json(out).config == parse_config(argv)
        good = [estimates for error, estimates in rows if error is None]
        if detail is not None:
            with open(os.path.join(tmp, detail), encoding="utf-8", newline="") as fh:
                header, *detail_rows = list(csv.reader(fh))
            assert header == DETAIL_HEADER
            assert len(detail_rows) == len(good) * (k_max - k_min + 1)
    assert len(rows) == grid
    assert all(value is not None for estimates in good for value in estimates)
    assert good or code == 2


def test_cli_exits_2_when_every_row_fails(monkeypatch, tmp_path, capsys):
    import chaosinfer.sweep as sweep_mod

    def sabotage(counts, prior):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(sweep_mod, "expected_info", sabotage)
    out = tmp_path / "out.csv"
    assert main(["--n", "900", "--transient", "20", "--grid", "3", "--k-max", "2",
                 "--out", str(out)]) == 2
    assert "3 rows failed; see the error column" in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 4


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
