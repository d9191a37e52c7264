import dataclasses
import warnings

import numpy as np
import pytest
from helpers import per_d_sweep

from chaosinfer.cli import main, parse_config
from chaosinfer.sweep import (
    GRID_BLOCK_ENTRIES,
    ConfigError,
    SweepConfig,
    csv_header,
    emit,
    emit_detail,
    load_sweep_json,
    run_sweep,
)

SMALL = SweepConfig(n=1500, transient=100, seed=5, grid=11, k_min=1, k_max=3)


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
}


@pytest.mark.parametrize("detail", [False, True], ids=["summary", "detail"])
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_run_sweep_equals_per_d_oracle(case, detail):
    cfg = ORACLE_CASES[case]
    if detail:
        cfg = dataclasses.replace(cfg, detail_path="detail.csv")
    assert run_sweep(cfg) == per_d_sweep(cfg)


def test_partial_block_case_spans_two_blocks():
    cfg = ORACLE_CASES["partial_block"]
    block = GRID_BLOCK_ENTRIES >> (cfg.k_max + 1)
    assert block < cfg.grid < 2 * block


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
    line = path.read_text().splitlines()[6]
    cells = line.split(",")
    row = small_result.rows[5]
    assert float(cells[0]) == row.d
    assert float(cells[2]) == row.h_expected_bits
    assert float(cells[5]) == row.log_evidence[0]


def test_emit_json_round_trip(tmp_path, small_result):
    path = tmp_path / "out.json"
    emit(small_result, "json", str(path))
    loaded = load_sweep_json(str(path))
    assert loaded == small_result


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


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        SweepConfig(k_min=2, k_max=1).validate()
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
    path = tmp_path / "out.json"
    code = main(["--n", "900", "--transient", "20", "--grid", "3", "--k-max", "2",
                 "--format", "json", "--out", str(path)])
    assert code == 0
    loaded = load_sweep_json(str(path))
    assert len(loaded.rows) == 3
    assert loaded.config.n == 900


def test_cli_exit_code_on_config_errors(capsys):
    assert main(["--k-max", "0", "--k-min", "1"]) == 1
    assert main(["--no-such-flag"]) == 1
    assert main(["--n", "abc"]) == 1
    assert main(["--sigma", "inf"]) == 1
    assert main(["--alpha", "inf"]) == 1
    assert main(["--seed", "-1"]) == 1
    assert main(["--k-max", "27", "--n", "100", "--grid", "3"]) == 1
    assert main(["--sigma", "1e308", "--n", "100", "--grid", "3"]) == 1
    assert "config error" in capsys.readouterr().err


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
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    out = blocker / "sub" / "out.csv"
    assert main(["--n", "900", "--transient", "20", "--grid", "3", "--k-max", "2",
                 "--out", str(out)]) == 2


def test_symmetry_of_information_curve(default_sweep_result):
    rows = default_sweep_result.rows
    hs = np.array([row.h_expected_bits for row in rows])
    assert np.all(np.abs(hs - hs[::-1]) <= 0.1)


def test_default_sweep_posteriors_normalized(default_sweep_result):
    for row in default_sweep_result.rows:
        assert abs(sum(row.p_order) - 1.0) <= 1e-12
